//! End-to-end benchmark of the phase-detection pipeline with a per-layer
//! host-time breakdown. See `README.md` in this directory.
//!
//! Usage: `dsm-perfbench --workload <paper-cold|serve-fleet>
//! --seed <n> --seconds <n> --trace <0|1>`, run from the repository root.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones.

mod heap;
mod paper_cold;
mod serve_fleet;
mod sim_probe;
mod span;
mod util;

use std::process::ExitCode;

use util::{ratio, Reps};

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: dsm-perfbench --workload <paper-cold|serve-fleet> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload hands back: its checks and its metrics.
#[derive(Default)]
pub struct Report {
    /// (check name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// Run provenance beyond the common fields: (key, value).
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    /// Record a per-layer metric; its unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
            .1;
        self.per_layer.push((name, value, unit));
    }

    /// The metrics every workload reports from its untraced repetitions.
    pub fn common_e2e<R>(&mut self, setup_s: f64, reps: &Reps<R>) {
        self.e2e("setup_s", setup_s, "s");
        self.e2e("wall_s", reps.wall_median(), "s");
        self.layer("peak_heap_mb", reps.median_of(|t, _| t.peak_heap_mb));
    }

    /// Layer self times over the traced repetitions (means per repetition),
    /// the `other` bucket that makes them sum to the traced wall time, and
    /// the tracing overhead against the interleaved untraced repetitions.
    pub fn layer_times<R>(&mut self, reps: &Reps<R>) {
        let n = reps.traced.len().max(1) as f64;
        let traced = reps.traced.iter().map(|(t, _)| t.wall_s).sum::<f64>() / n;
        let untraced = reps.untraced.iter().map(|(t, _)| t.wall_s).sum::<f64>()
            / reps.untraced.len().max(1) as f64;
        let mut spanned = 0.0;
        for (metric, secs) in reps.tracer.layer_secs() {
            spanned += secs / n;
            self.layer(metric, secs / n);
        }
        self.layer("other_s", traced - spanned);
        self.layer("trace.wall_s", traced);
        self.layer("trace.untraced_wall_s", untraced);
        self.layer("trace.overhead_frac", ratio(traced - untraced, untraced));
        self.layer("trace.spans", reps.tracer.count() as f64 / n);
        self.layer("trace.reps", reps.traced.len() as f64);
    }

    /// Exact-count guard: every count must read the same in every
    /// repetition, and, where `expected` pins it, equal the pinned value.
    pub fn exact_counts<R>(
        &mut self,
        reps: &Reps<R>,
        counts: impl Fn(&R) -> Vec<(&'static str, u64)>,
        expected: &[(&'static str, u64)],
    ) {
        let all: Vec<_> = reps.all().map(counts).collect();
        let first = all[0].clone();
        let n_reps = all.len();
        let repeat = all.iter().all(|c| *c == first);
        self.check(
            "exact counts repeat across repetitions",
            repeat,
            format!("{n_reps} repetitions: {first:?}"),
        );
        for &(name, want) in expected {
            let got = first.iter().find(|(n, _)| *n == name).map(|c| c.1);
            self.check(
                format!("exact count {name}"),
                got == Some(want),
                format!("got {got:?}, pinned {want}"),
            );
        }
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("workloads.gen_s", "s"),
    ("workloads.events", "count"),
    ("sim.core_s", "s"),
    ("sim.events", "count"),
    ("sim.insns", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.shard.windows", "count"),
    ("sim.shard.barrier_stalls", "count"),
    ("sim.shard.speedup_vs_serial", "x"),
    ("sim.shard.serial_s", "s"),
    ("sim.shard.sharded_s", "s"),
    ("core.collect_s", "s"),
    ("core.intervals", "count"),
    ("core.pool.drains", "count"),
    ("core.pool.steals", "count"),
    ("core.pool.threads", "count"),
    ("harness.capture_s", "s"),
    ("harness.trace_cache.hit_frac", "ratio"),
    ("harness.trace_store.encode_s", "s"),
    ("harness.trace_store.decode_s", "s"),
    ("harness.trace_store.bytes", "bytes"),
    ("harness.sweep.bbv_s", "s"),
    ("harness.sweep.grid_s", "s"),
    ("harness.sweep.variants_s", "s"),
    ("harness.sweep.calls", "count"),
    ("harness.sweep.distinct_frac", "ratio"),
    ("harness.sweep.intervals_classified", "count"),
    ("harness.sweep.ns_per_interval", "ns"),
    ("harness.sensitivity_s", "s"),
    ("analysis.render_s", "s"),
    ("serve.ingest_s", "s"),
    ("serve.offers", "count"),
    ("serve.ingest_ns_per_offer", "ns"),
    ("serve.batch_s", "s"),
    ("serve.classified", "count"),
    ("serve.batch_ns_per_cls", "ns"),
    ("serve.deliver_s", "s"),
    ("serve.churn_s", "s"),
    ("serve.busy", "count"),
    ("serve.delivered", "count"),
    ("serve.abandoned", "count"),
    ("diagnose.engine_s", "s"),
    ("diagnose.calls", "count"),
    ("sim_minsts_per_s", "Minsts/s"),
    ("serve_cls_per_s", "1/s"),
    ("serve_lat_p50_us", "us"),
    ("serve_lat_p99_us", "us"),
    ("serve_refused_frac", "ratio"),
    ("workloads.self_s", "s"),
    ("sim.self_s", "s"),
    ("core.self_s", "s"),
    ("harness.self_s", "s"),
    ("analysis.self_s", "s"),
    ("serve.self_s", "s"),
    ("diagnose.self_s", "s"),
    ("other_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.reps", "count"),
    ("peak_heap_mb", "MiB"),
];

/// Git revision of the working directory, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host cores, and the fixed worker count every workload uses (at most 2,
/// never more than the host has).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn workers() -> usize {
    nproc().min(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper-cold" => paper_cold::run(&args),
        "serve-fleet" => serve_fleet::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };

    let mut prov = vec![
        ("workload", args.workload.clone()),
        ("git_rev", git_rev()),
        ("cargo_features", "none (default features)".into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("workers", workers().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
    ];
    prov.append(&mut report.provenance);
    let fields: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("provenance {{{}}}", fields.join(","));

    let failed = report.checks.iter().filter(|c| !c.1).count();
    for (name, ok, detail) in &report.checks {
        println!(
            "check {:<6} {name}: {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let metrics = if args.trace {
        // Every per-layer metric, in catalogue order; idle layers read 0.
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                report
                    .per_layer
                    .iter()
                    .find(|m| m.0 == name)
                    .copied()
                    .unwrap_or((name, 0.0, unit))
            })
            .collect::<Vec<_>>()
    } else {
        report.end_to_end.clone()
    };
    for (name, value, unit) in metrics.iter().chain(if args.trace {
        &report.end_to_end[..]
    } else {
        &report.per_layer[..]
    }) {
        println!("metric {name:<36} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        report.checks.len().max(1),
        failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
