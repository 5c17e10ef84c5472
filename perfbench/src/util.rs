//! Statistics, process accounting and digests shared by the workloads.

use std::time::Instant;

use crate::span::Tracer;

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Nearest-rank percentile of integer samples (sorts in place); 0 if empty.
pub fn percentile_ns(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a 64-bit, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// One repetition's host costs.
pub struct RepTime {
    pub wall_s: f64,
    pub peak_heap_mb: f64,
}

/// Repetitions of a workload's unit of work, split by tracing.
pub struct Reps<R> {
    pub untraced: Vec<(RepTime, R)>,
    pub traced: Vec<(RepTime, R)>,
    /// Spans of every traced repetition.
    pub tracer: Tracer,
}

impl<R> Reps<R> {
    pub fn all(&self) -> impl Iterator<Item = &R> {
        self.untraced.iter().chain(&self.traced).map(|(_, r)| r)
    }

    pub fn wall_median(&self) -> f64 {
        median(
            &self
                .untraced
                .iter()
                .map(|(t, _)| t.wall_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over untraced repetitions of a per-repetition figure.
    pub fn median_of(&self, f: impl Fn(&RepTime, &R) -> f64) -> f64 {
        median(
            &self
                .untraced
                .iter()
                .map(|(t, r)| f(t, r))
                .collect::<Vec<_>>(),
        )
    }
}

/// Run `rep` at least `min_reps` times in all, and then as long as the
/// next round is expected to end within `seconds` of the start. With
/// `trace`, a round is an untraced repetition followed by a traced one, so
/// both see the same host conditions.
pub fn run_reps<R>(
    seconds: f64,
    min_reps: usize,
    trace: bool,
    mut rep: impl FnMut(&mut Tracer) -> R,
) -> Reps<R> {
    let mut out = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(true),
    };
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        out.untraced.push(timed(|| rep(&mut off)));
        if trace {
            let tracer = &mut out.tracer;
            out.traced.push(timed(|| rep(tracer)));
        }
        let (elapsed, last) = (t0.elapsed().as_secs_f64(), t.elapsed().as_secs_f64());
        if out.untraced.len() + out.traced.len() >= min_reps && elapsed + last > seconds {
            return out;
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (RepTime, R) {
    crate::heap::reset_peak();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        RepTime {
            wall_s,
            peak_heap_mb: crate::heap::peak_mb(),
        },
        r,
    )
}

/// Set-ups per run: one set-up takes a tenth of a second or less, and
/// single ones moved by ±20% on a shared host.
const SETUPS: usize = 11;

/// Median seconds of [`SETUPS`] runs of `f`, plus the last run's result.
pub fn median_setup<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up"))
}
