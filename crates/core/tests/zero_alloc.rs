//! The online detector classifies steady-state intervals without touching
//! the heap. A pass-through counting allocator wraps the system one; the
//! count is process-wide, so this binary holds exactly one test and nothing
//! else allocates while a window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dsm_phase::detector::{DetectorGeometry, DetectorMode, OnlineDetector, Thresholds};
use dsm_sim::observer::{IntervalStats, SimObserver};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc` and `realloc`, then defers to [`System`].
struct CountingAlloc;

// SAFETY: every operation is forwarded to `System` unchanged; the counter
// update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N_PROCS: usize = 4;
const WARMUP: u64 = 256;
const WINDOWS: usize = 64;
const PER_WINDOW: u64 = 16;

/// Hypercube hop distances, row-major; a node's own home costs one hop.
fn hypercube_dist(n: usize) -> Vec<f64> {
    let mut dist = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            dist[i * n + j] = if i == j { 1.0 } else { 1.0 + (i ^ j).count_ones() as f64 };
        }
    }
    dist
}

/// Feed `n` intervals on every processor. Two signatures alternate, so
/// classification takes both the match path and the table-scan path.
fn drive(det: &mut OnlineDetector, index: &mut u64, n: u64) {
    for _ in 0..n {
        let code = 7 + (*index % 2) as u32 * 1000;
        for p in 0..N_PROCS {
            for b in 0..8 {
                det.on_block_commit(p, code + b, 50);
            }
            det.on_mem_commit(p, (*index % N_PROCS as u64) as usize, 0x40, false);
        }
        for p in 0..N_PROCS {
            det.on_interval(p, IntervalStats { index: *index, insns: 400, cycles: 900 });
        }
        *index += 1;
    }
}

#[test]
fn steady_state_classification_allocates_nothing() {
    let mut det = OnlineDetector::new(
        N_PROCS,
        hypercube_dist(N_PROCS),
        DetectorMode::BbvDdv,
        Thresholds { bbv: 0.5, dds: 0.3 },
        DetectorGeometry::default(),
    );
    let mut index = 0u64;
    drive(&mut det, &mut index, WARMUP);

    // Median over windows, so one-off growth of a history `Vec` cannot
    // hide a per-interval allocation or fake one.
    let mut per_window = [0u64; WINDOWS];
    for slot in per_window.iter_mut() {
        let before = ALLOCS.load(Ordering::Relaxed);
        drive(&mut det, &mut index, PER_WINDOW);
        *slot = ALLOCS.load(Ordering::Relaxed) - before;
    }
    per_window.sort_unstable();
    let median = per_window[WINDOWS / 2];
    assert_eq!(
        median, 0,
        "median heap allocations per {PER_WINDOW}-interval window on {N_PROCS} processors: \
         {median} (sorted windows: {per_window:?})"
    );
}
