//! `paper-cold`: regenerate the six paper artefacts (`tables`, `fig2` with
//! the LU headline, `fig4` with the FMM headlines, `ablation`, `baselines`,
//! `sensitivity`) at `Scaled` inputs, from an empty private trace store.
//!
//! The benchmark makes the same capture, sweep and render calls as the
//! bins, in the same order and with the same duplicates. Each bin runs as
//! its own process in the real pipeline, so the in-memory trace cache is
//! cleared before each one: later bins read the traces earlier bins stored,
//! exactly as `fig2 && fig4 && ablation && ...` does. Artefacts are
//! rendered in memory and compared byte for byte with the committed
//! `results/` files, which are only read.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsm_analysis::curve::CovCurve;
use dsm_harness::figures::{config_at, Figure, Panel};
use dsm_harness::parallel::{self, CaptureSource, RunReport, TraceStore};
use dsm_harness::sensitivity::{
    bank_sweep, geometry_sweep, interval_sweep, network_model_sweep, placement_sweep,
    SensitivityPoint,
};
use dsm_harness::sweep::{
    ablation_curve, bbv_curve, bbv_ddv_curve, branch_count_curve, vector_ddv_curve,
    working_set_curve, DdsAblation, BBV_SWEEP_POINTS, DDV_GRID_BBV, DDV_GRID_DDS,
};
use dsm_harness::tables::{table1, table2};
use dsm_harness::trace::{capture, capture_cached, clear_memory_cache, SystemTrace};
use dsm_harness::ExperimentConfig;
use dsm_workloads::{App, Scale};

use crate::span::Tracer;
use crate::util::{median_setup, ratio, run_reps};
use crate::{Args, Report};

const SCALE: Scale = Scale::Scaled;

/// The committed artefacts a run must reproduce byte for byte.
const ARTEFACTS: [&str; 13] = [
    "tables.txt",
    "fig2.txt",
    "fig2.csv",
    "fig2.json",
    "fig4.txt",
    "fig4.csv",
    "fig4.json",
    "ablation.txt",
    "ablation.csv",
    "baselines.txt",
    "baselines.csv",
    "sensitivity.txt",
    "sensitivity.csv",
];

/// Counts pinned for the current pipeline: a change that keeps the
/// artefacts must keep these.
const EXPECTED: [(&str, u64); 3] = [
    ("harness.sweep.calls", 75),
    ("harness.sweep.intervals_classified", 63_608_400),
    ("core.intervals", 28_031),
];

const FIG2_SIZES: [usize; 3] = [2, 8, 32];

/// `fig2`'s capture matrix: every config the pipeline simulates outside
/// the sensitivity studies (later bins read these from the store).
fn fig2_configs() -> Vec<ExperimentConfig> {
    App::ALL
        .iter()
        .flat_map(|&app| FIG2_SIZES.iter().map(move |&p| config_at(app, p, SCALE)))
        .collect()
}

/// One sweep call the pipeline made.
struct SweepCall {
    /// Which curve of which trace: duplicates share a key.
    key: String,
    intervals: u64,
}

/// One repetition's outputs and accounting.
struct Rep {
    /// (artefact file name, rendered bytes).
    artefacts: Vec<(&'static str, Vec<u8>)>,
    sweeps: Vec<SweepCall>,
    reports: Vec<RunReport>,
    /// Traces returned by the capture matrices, in call order (traced
    /// repetitions only, for the trace-store probe).
    captured: Vec<Arc<SystemTrace>>,
}

impl Rep {
    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("harness.sweep.calls", self.sweeps.len() as u64),
            (
                "harness.sweep.intervals_classified",
                self.sweeps.iter().map(|s| s.intervals).sum(),
            ),
            ("core.intervals", self.simulated_intervals()),
        ]
    }

    /// Intervals captured by simulation (cache misses) in the matrices.
    fn simulated_intervals(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| &r.runs)
            .filter(|r| r.source == CaptureSource::Simulated)
            .map(|r| r.intervals as u64)
            .sum()
    }
}

/// Runs the pipeline for one repetition.
struct Pipeline<'a> {
    tr: &'a mut Tracer,
    rep: Rep,
}

impl Pipeline<'_> {
    /// A bin's capture matrix, after the process boundary the real
    /// pipeline has between bins.
    fn matrix(&mut self, name: &str, configs: &[ExperimentConfig]) {
        clear_memory_cache();
        let (traces, report) = self.tr.span("harness.capture", || {
            parallel::capture_matrix(name, configs)
        });
        if self.tr.on() {
            self.rep.captured.extend(traces);
        }
        self.rep.reports.push(report);
    }

    fn trace(&mut self, app: App, p: usize) -> Arc<SystemTrace> {
        self.tr.span("harness.capture", || {
            capture_cached(config_at(app, p, SCALE))
        })
    }

    /// One sweep call, timed under `span` and accounted under `key`.
    fn sweep(
        &mut self,
        span: &'static str,
        key: &str,
        trace: &SystemTrace,
        f: impl FnOnce(&SystemTrace) -> CovCurve,
    ) -> CovCurve {
        let points = match span {
            "harness.sweep.grid" => DDV_GRID_BBV * DDV_GRID_DDS,
            _ => BBV_SWEEP_POINTS,
        };
        self.rep.sweeps.push(SweepCall {
            key: format!("{key}|{}", trace.config.label()),
            intervals: (points * trace.total_intervals()) as u64,
        });
        self.tr.span(span, || f(trace))
    }

    fn bbv(&mut self, trace: &SystemTrace) -> CovCurve {
        self.sweep("harness.sweep.bbv", "bbv", trace, bbv_curve)
    }

    fn ddv(&mut self, trace: &SystemTrace) -> CovCurve {
        self.sweep("harness.sweep.grid", "bbv+ddv", trace, bbv_ddv_curve)
    }

    fn emit(&mut self, name: &'static str, bytes: Vec<u8>) {
        self.rep.artefacts.push((name, bytes));
    }

    fn render_csv(&mut self, headers: &[&str], rows: &[Vec<String>]) -> Vec<u8> {
        self.tr.span("analysis.render", || {
            let mut buf = Vec::new();
            dsm_analysis::plot::write_csv(&mut buf, headers, rows).expect("write to memory");
            buf
        })
    }

    fn tables(&mut self) {
        let out = self.tr.span("analysis.render", || {
            format!("{}\n{}", table1().render(), table2().render())
        });
        self.emit("tables.txt", out.into_bytes());
    }

    fn ascii(&mut self, fig: &Figure) -> String {
        self.tr.span("analysis.render", || fig.render_ascii())
    }

    /// The rest of a figure bin's output, after its headline.
    fn figure(&mut self, names: [&'static str; 3], fig: &Figure, ascii: String, headline: String) {
        let (h, rows) = self.tr.span("analysis.render", || fig.csv());
        let csv = self.render_csv(&h, &rows);
        let json = self
            .tr
            .span("analysis.render", || fig.to_json().to_string());
        self.emit(names[0], format!("{ascii}\n{headline}").into_bytes());
        self.emit(names[1], csv);
        self.emit(names[2], json.into_bytes());
    }

    fn fig2(&mut self) {
        let sizes = FIG2_SIZES;
        self.matrix("fig2", &fig2_configs());
        let mut panels = Vec::new();
        for app in App::ALL {
            let mut curves = Vec::new();
            for p in sizes {
                let trace = self.trace(app, p);
                curves.push((format!("{p}P"), self.bbv(&trace)));
            }
            panels.push(Panel {
                app,
                n_procs: None,
                curves,
            });
        }
        let fig = Figure {
            name: "Figure 2: Baseline BBV results".into(),
            panels,
        };
        let ascii = self.ascii(&fig);
        // headline_lu
        let mut cov7 = Vec::new();
        let mut p20 = Vec::new();
        for p in sizes {
            let trace = self.trace(App::Lu, p);
            let c = self.bbv(&trace);
            cov7.push((p, c.cov_at_phases(7.0)));
            p20.push((p, c.phases_at_cov(0.20)));
        }
        let mut headline = String::from("LU headline (paper SIII-A):\n");
        for (p, cov) in &cov7 {
            headline.push_str(&format!(
                "  {p:>2}P: CoV at 7 phases = {}\n",
                cov.map(|c| format!("{:.1} %", c * 100.0))
                    .unwrap_or_else(|| "n/a".into())
            ));
        }
        for (p, phases) in &p20 {
            headline.push_str(&format!(
                "  {p:>2}P: phases for 20 % CoV = {}\n",
                phases
                    .map(|x| format!("{x:.0}"))
                    .unwrap_or_else(|| ">25 / n/a".into())
            ));
        }
        self.figure(["fig2.txt", "fig2.csv", "fig2.json"], &fig, ascii, headline);
    }

    fn fig4(&mut self) {
        let sizes = [8usize, 32];
        let configs: Vec<_> = App::ALL
            .iter()
            .flat_map(|&app| sizes.iter().map(move |&p| config_at(app, p, SCALE)))
            .collect();
        self.matrix("fig4", &configs);
        let mut panels = Vec::new();
        for p in sizes {
            for app in App::ALL {
                let trace = self.trace(app, p);
                let bbv = self.bbv(&trace);
                let ddv = self.ddv(&trace);
                panels.push(Panel {
                    app,
                    n_procs: Some(p),
                    curves: vec![("BBV".to_string(), bbv), ("BBV+DDV".to_string(), ddv)],
                });
            }
        }
        let fig = Figure {
            name: "Figure 4: BBV+DDV results".into(),
            panels,
        };
        let ascii = self.ascii(&fig);
        let pct = |x: Option<f64>| {
            x.map(|v| format!("{:.1} %", v * 100.0))
                .unwrap_or_else(|| "n/a".into())
        };
        let num = |x: Option<f64>| x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "n/a".into());
        let mut headline = String::from("FMM headline (paper SIV):\n");
        for p in [8usize, 32] {
            // headline_fmm(scale, p, 25.0)
            let trace = self.trace(App::Fmm, p);
            let bbv = self.bbv(&trace);
            let ddv = self.ddv(&trace);
            let bbv_cov = bbv.cov_at_phases(25.0);
            let target = bbv_cov.unwrap_or(f64::INFINITY);
            headline.push_str(&format!(
                "  {p:>2}P at 25-phase budget: BBV CoV = {}, BBV+DDV CoV = {}\n",
                pct(bbv_cov),
                pct(ddv.cov_at_phases(25.0))
            ));
            headline.push_str(&format!(
                "  {p:>2}P phases to reach the BBV's CoV: BBV = {}, BBV+DDV = {}\n",
                num(bbv.phases_at_cov(target)),
                num(ddv.phases_at_cov(target))
            ));
        }
        self.figure(["fig4.txt", "fig4.csv", "fig4.json"], &fig, ascii, headline);
    }

    /// Text and CSV rows for one app's variants, as `ablation` and
    /// `baselines` print them.
    fn variant_rows(
        &mut self,
        app: App,
        width: usize,
        variants: &[(&str, CovCurve)],
        out: &mut String,
        rows: &mut Vec<Vec<String>>,
    ) {
        self.tr.span("analysis.render", || {
            out.push_str(&format!("{}:\n", app.name()));
            for (name, curve) in variants {
                let at = |k: f64| {
                    curve
                        .cov_at_phases(k)
                        .map(|v| format!("{v:.3}"))
                        .unwrap_or_else(|| "  n/a".into())
                };
                out.push_str(&format!(
                    "  {name:<width$} @7={} @15={} @25={}\n",
                    at(7.0),
                    at(15.0),
                    at(25.0)
                ));
                for k in [7.0, 15.0, 25.0] {
                    if let Some(cov) = curve.cov_at_phases(k) {
                        rows.push(vec![
                            app.name().into(),
                            name.to_string(),
                            format!("{k}"),
                            format!("{cov:.6}"),
                        ]);
                    }
                }
            }
            out.push('\n');
        });
    }

    fn ablation(&mut self) {
        let configs: Vec<_> = App::ALL
            .iter()
            .map(|&app| config_at(app, 32, SCALE))
            .collect();
        self.matrix("ablation", &configs);
        let mut out = String::from(
            "DDS ablations at 32P (identifier CoV at fixed phase budgets; lower is better)\n\n",
        );
        let mut rows = Vec::new();
        for app in App::ALL {
            let trace = self.trace(app, 32);
            let v = "harness.sweep.variants";
            let variants = vec![
                ("BBV only", self.bbv(&trace)),
                ("BBV+DDV (full F*D*C)", self.ddv(&trace)),
                (
                    "BBV+DDS[C=1] (no contention)",
                    self.sweep(v, "no-contention", &trace, |t| {
                        ablation_curve(t, DdsAblation::NoContention)
                    }),
                ),
                (
                    "BBV+DDS[D=1] (no distance)",
                    self.sweep(v, "no-distance", &trace, |t| {
                        ablation_curve(t, DdsAblation::NoDistance)
                    }),
                ),
                (
                    "BBV+DDS[F only]",
                    self.sweep(v, "frequency-only", &trace, |t| {
                        ablation_curve(t, DdsAblation::FrequencyOnly)
                    }),
                ),
                (
                    "BBV||F*D vector (extension)",
                    self.sweep(v, "vector-ddv", &trace, |t| vector_ddv_curve(t, 1.0)),
                ),
            ];
            self.variant_rows(app, 30, &variants, &mut out, &mut rows);
        }
        let csv = self.render_csv(&["app", "variant", "phases", "cov"], &rows);
        self.emit("ablation.txt", out.into_bytes());
        self.emit("ablation.csv", csv);
    }

    fn baselines(&mut self) {
        let n_procs = 32;
        let configs: Vec<_> = App::ALL
            .iter()
            .map(|&app| config_at(app, n_procs, SCALE))
            .collect();
        self.matrix("baselines", &configs);
        let mut out = format!(
            "Detector comparison at {n_procs}P (identifier CoV at fixed phase budgets)\n\n"
        );
        let mut rows = Vec::new();
        for app in App::ALL {
            let trace = self.trace(app, n_procs);
            let v = "harness.sweep.variants";
            let variants = vec![
                (
                    "branch-count (Balasubramonian)",
                    self.sweep(v, "branch-count", &trace, branch_count_curve),
                ),
                (
                    "working-set sig (Dhodapkar-Smith)",
                    self.sweep(v, "working-set", &trace, working_set_curve),
                ),
                ("BBV (Sherwood)", self.bbv(&trace)),
                ("BBV+DDV (this paper)", self.ddv(&trace)),
            ];
            self.variant_rows(app, 34, &variants, &mut out, &mut rows);
        }
        let csv = self.render_csv(&["app", "detector", "phases", "cov"], &rows);
        self.emit("baselines.txt", out.into_bytes());
        self.emit("baselines.csv", csv);
    }

    fn sensitivity(&mut self) {
        clear_memory_cache();
        let s = "harness.sensitivity";
        let mut studies: Vec<(String, Vec<SensitivityPoint>)> = Vec::new();
        let geo = self.tr.span(s, || {
            geometry_sweep(
                App::Lu,
                32,
                SCALE,
                &[(8, 8), (16, 16), (32, 32), (64, 64), (32, 8), (8, 32)],
            )
        });
        studies.push((
            "Detector geometry (LU): accumulator entries x footprint vectors".into(),
            geo,
        ));
        let iv = self.tr.span(s, || {
            interval_sweep(
                App::Lu,
                32,
                SCALE,
                &[32_000, 64_000, 128_000, 256_000, 512_000],
            )
        });
        studies.push(("Sampling-interval base (LU)".into(), iv));
        for app in [App::Lu, App::Art] {
            let pl = self.tr.span(s, || placement_sweep(app, 32, SCALE));
            studies.push((format!("Data placement ({})", app.name()), pl));
        }
        let nm = self.tr.span(s, || network_model_sweep(App::Lu, 32, SCALE));
        studies.push(("Network contention model (LU)".into(), nm));
        let bk = self
            .tr
            .span(s, || bank_sweep(App::Art, 32, SCALE, &[1, 2, 4, 8]));
        studies.push(("SDRAM banks per controller (Art)".into(), bk));

        let (out, rows) = self.tr.span("analysis.render", || {
            let mut out = String::from("Sensitivity studies (32P unless noted)\n\n");
            let mut rows = Vec::new();
            for (title, pts) in &studies {
                render_study(title, pts, &mut out, &mut rows);
            }
            (out, rows)
        });
        let csv = self.render_csv(
            &[
                "study",
                "variant",
                "bbv_at_15",
                "ddv_at_15",
                "cpi",
                "rmiss",
                "ints_per_proc",
            ],
            &rows,
        );
        self.emit("sensitivity.txt", out.into_bytes());
        self.emit("sensitivity.csv", csv);
    }
}

fn fmt3(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.3}"))
        .unwrap_or_else(|| "  n/a".into())
}

/// One sensitivity study, as the `sensitivity` bin renders it.
fn render_study(
    title: &str,
    pts: &[SensitivityPoint],
    out: &mut String,
    rows: &mut Vec<Vec<String>>,
) {
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "  {:<36} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "variant", "BBV@15", "DDV@15", "CPI", "rmiss", "ints/proc"
    ));
    for p in pts {
        out.push_str(&format!(
            "  {:<36} {:>8} {:>8} {:>8.2} {:>8.2} {:>10}\n",
            p.label,
            fmt3(p.bbv_at_15),
            fmt3(p.ddv_at_15),
            p.mean_cpi,
            p.remote_miss_fraction,
            p.intervals_per_proc
        ));
        rows.push(vec![
            title.to_string(),
            p.label.clone(),
            fmt3(p.bbv_at_15),
            fmt3(p.ddv_at_15),
            format!("{:.3}", p.mean_cpi),
            format!("{:.3}", p.remote_miss_fraction),
            p.intervals_per_proc.to_string(),
        ]);
    }
    out.push('\n');
}

/// Private scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Start a repetition cold: an empty private store and an empty
/// in-memory cache.
fn cold_store(store_dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(store_dir);
    TraceStore::open(store_dir)?;
    parallel::set_trace_store_dir(Some(store_dir.to_path_buf()));
    clear_memory_cache();
    Ok(())
}

fn repetition(tr: &mut Tracer, store_dir: &Path) -> Rep {
    cold_store(store_dir).expect("reset the private trace store");
    let mut p = Pipeline {
        tr,
        rep: Rep {
            artefacts: Vec::new(),
            sweeps: Vec::new(),
            reports: Vec::new(),
            captured: Vec::new(),
        },
    };
    p.tables();
    p.fig2();
    p.fig4();
    p.ablation();
    p.baselines();
    p.sensitivity();
    clear_memory_cache();
    p.rep
}

/// Re-make the pipeline's trace-store calls on its own traces: one
/// `store` per simulated capture and one `load` per disk hit, in order.
/// Returns (encode seconds, decode seconds, bytes written, round trips
/// that matched).
fn store_probe(rep: &Rep, dir: &Path) -> std::io::Result<(f64, f64, u64, bool)> {
    let _ = std::fs::remove_dir_all(dir);
    let store = TraceStore::open(dir)?;
    let (mut enc, mut dec, mut bytes, mut same) = (0.0, 0.0, 0u64, true);
    let runs = rep.reports.iter().flat_map(|r| &r.runs);
    for (run, trace) in runs.zip(&rep.captured) {
        match run.source {
            CaptureSource::Simulated => {
                let t = std::time::Instant::now();
                let path = store.store(&run.key, trace)?;
                enc += t.elapsed().as_secs_f64();
                bytes += std::fs::metadata(path)?.len();
            }
            CaptureSource::DiskCache => {
                let t = std::time::Instant::now();
                let loaded = store.load(&run.key);
                dec += t.elapsed().as_secs_f64();
                same &=
                    loaded.is_some_and(|l| l.records == trace.records && l.stats == trace.stats);
            }
            CaptureSource::MemoryCache => {}
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((enc, dec, bytes, same))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create().map_err(|e| format!("cannot create the work directory: {e}"))?;
    let work = work.path();
    let results = Path::new("results");
    parallel::set_jobs(crate::workers());
    let store_dir = work.join("store");

    // Set-up: an empty private store, the reference artefacts, and one
    // warm-up capture and sweep (thread start-up, first-touch heap growth)
    // that touches neither cache nor store.
    let (setup_s, reference) = median_setup(|| {
        cold_store(&store_dir).map_err(|e| format!("trace store: {e}"))?;
        std::hint::black_box(bbv_curve(&capture(ExperimentConfig::scaled(App::Lu, 8))));
        ARTEFACTS
            .iter()
            .map(|&name| {
                std::fs::read(results.join(name))
                    .map(|b| (name, b))
                    .map_err(|e| format!("read results/{name}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let reference = reference?;

    let reps = run_reps(args.seconds, 2, args.trace, |tr| repetition(tr, &store_dir));
    parallel::set_trace_store_dir(None);

    let mut report = Report::default();
    for (_, rep) in reps.untraced.iter().chain(&reps.traced) {
        report.check(
            "every artefact rendered",
            rep.artefacts.len() == ARTEFACTS.len(),
            format!("{} of {}", rep.artefacts.len(), ARTEFACTS.len()),
        );
        for ((name, want), (got_name, got)) in reference.iter().zip(&rep.artefacts) {
            let ok = name == got_name && want == got;
            report.check(
                format!("artefact results/{name} byte-equal"),
                ok,
                format!("{} bytes rendered, {} committed", got.len(), want.len()),
            );
        }
    }
    report.exact_counts(&reps, Rep::counts, &EXPECTED);
    report.common_e2e(setup_s, &reps);

    let first = &reps.untraced[0].1;
    let distinct: BTreeSet<&str> = first.sweeps.iter().map(|s| s.key.as_str()).collect();
    let runs: Vec<_> = first.reports.iter().flat_map(|r| &r.runs).collect();
    let hits = runs
        .iter()
        .filter(|r| r.source != CaptureSource::Simulated)
        .count();
    let classified: u64 = first.sweeps.iter().map(|s| s.intervals).sum();
    report.layer("harness.sweep.calls", first.sweeps.len() as f64);
    report.layer(
        "harness.sweep.distinct_frac",
        ratio(distinct.len() as f64, first.sweeps.len() as f64),
    );
    report.layer("harness.sweep.intervals_classified", classified as f64);
    report.layer(
        "harness.trace_cache.hit_frac",
        ratio(hits as f64, runs.len() as f64),
    );
    report.layer("core.intervals", first.simulated_intervals() as f64);

    if args.trace {
        let n = reps.traced.len() as f64;
        let secs = |name: &str| reps.tracer.secs(name) / n;
        report.layer("harness.capture_s", secs("harness.capture"));
        report.layer("harness.sweep.bbv_s", secs("harness.sweep.bbv"));
        report.layer("harness.sweep.grid_s", secs("harness.sweep.grid"));
        report.layer("harness.sweep.variants_s", secs("harness.sweep.variants"));
        let sweep_s =
            secs("harness.sweep.bbv") + secs("harness.sweep.grid") + secs("harness.sweep.variants");
        report.layer(
            "harness.sweep.ns_per_interval",
            ratio(sweep_s * 1e9, classified as f64),
        );
        report.layer("harness.sensitivity_s", secs("harness.sensitivity"));
        report.layer("analysis.render_s", secs("analysis.render"));
        report.layer_times(&reps);

        let traced = &reps.traced[0].1;
        let (enc, dec, bytes, same) =
            store_probe(traced, &work.join("probe")).map_err(|e| format!("store probe: {e}"))?;
        report.check(
            "trace store round trip",
            same,
            "every trace the pipeline loaded decodes equal to the one it stored",
        );
        report.layer("harness.trace_store.encode_s", enc);
        report.layer("harness.trace_store.decode_s", dec);
        report.layer("harness.trace_store.bytes", bytes as f64);
        crate::sim_probe::measure(&mut report, &fig2_configs());
    }
    report.provenance = vec![
        ("scale", format!("{SCALE:?}")),
        ("jobs", parallel::jobs().to_string()),
        ("samples", reps.untraced.len().to_string()),
        ("traced_samples", reps.traced.len().to_string()),
    ];
    Ok(report)
}
