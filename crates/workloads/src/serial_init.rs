//! Serial-initialization prologue: the classic first-touch placement
//! pathology.
//!
//! The SPLASH-2 "non-contiguous" applications (LU, Ocean, FMM's tree
//! build) initialize their shared data from a single thread before the
//! parallel section starts. On a first-touch DSM machine that serial pass
//! is the *first* touch, so every page ends up homed at node 0 — the
//! motivating scenario for dynamic page migration in the paper's class of
//! machines. The default [`crate::app::make_stream`] workloads allocate
//! data directly at its compute-time owner (no init phase), which makes
//! static first-touch placement unrealistically perfect; this wrapper
//! restores the pathology *without touching the compute stream*:
//!
//! 1. processor 0 writes one line on every page of the workload's
//!    [`Workload::footprint`] (the initialization sweep);
//! 2. all processors meet at a dedicated barrier;
//! 3. the wrapped workload's stream follows unchanged.
//!
//! Every placement arm (static first-touch, static round-robin, tuned
//! migration) runs the *same* prologue, so comparisons stay apples to
//! apples; only the page-homing consequences differ by policy.

use std::collections::BTreeSet;

use dsm_sim::addr::{Addr, PAGE_SHIFT};
use dsm_sim::event::{ChunkGen, ChunkedStream, Event};

use crate::app::{App, Workload};
use crate::inputs::Scale;
use crate::mem::Region;

/// Barrier id of the init/compute rendezvous. Outside the id space any
/// modelled workload uses (their ids grow from 0 with the step count).
pub const SERIAL_INIT_BARRIER: u32 = u32::MAX;

/// Wraps a workload with a serial-initialization prologue on processor 0.
pub struct SerialInit<W: Workload> {
    inner: W,
    /// One representative address per distinct footprint page, ascending.
    pages: Vec<Addr>,
    init_emitted: bool,
    released: Vec<bool>,
}

impl<W: Workload> SerialInit<W> {
    pub fn new(inner: W) -> Self {
        let pages = distinct_pages(&inner.footprint());
        let n = inner.n_procs();
        Self { inner, pages, init_emitted: false, released: vec![false; n] }
    }
}

/// One block-aligned representative address per page covered by `regions`,
/// in ascending address order.
fn distinct_pages(regions: &[Region]) -> Vec<Addr> {
    let mut pages = BTreeSet::new();
    for r in regions {
        let mut off = 0;
        while off < r.bytes() {
            pages.insert((r.addr(off) >> PAGE_SHIFT) << PAGE_SHIFT);
            off += 1 << PAGE_SHIFT;
        }
        // Regions need not start page-aligned: cover the tail page too.
        pages.insert((r.addr(r.bytes() - 1) >> PAGE_SHIFT) << PAGE_SHIFT);
    }
    pages.into_iter().collect()
}

impl<W: Workload> ChunkGen for SerialInit<W> {
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }

    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
        if !self.released[proc] {
            if proc == 0 && !self.init_emitted {
                for &addr in &self.pages {
                    buf.push(Event::Mem { addr, write: true });
                }
                self.init_emitted = true;
            }
            buf.push(Event::Barrier { id: SERIAL_INIT_BARRIER });
            self.released[proc] = true;
            return;
        }
        self.inner.fill(proc, buf);
    }
}

impl<W: Workload> Workload for SerialInit<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn input_desc(&self) -> String {
        format!("{} + serial init ({} pages)", self.inner.input_desc(), self.pages.len())
    }
    fn footprint(&self) -> Vec<Region> {
        self.inner.footprint()
    }
}

/// Build an application stream with the serial-initialization prologue
/// (same machine-facing type as [`crate::app::make_stream`]).
pub fn make_serial_init_stream(
    app: App,
    n_procs: usize,
    scale: Scale,
) -> ChunkedStream<Box<dyn Workload>> {
    let wrapped: Box<dyn Workload> = Box::new(SerialInit::new(app.build(n_procs, scale)));
    ChunkedStream::new(wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::event::InstructionStream;

    fn drain(stream: &mut dyn InstructionStream, proc: usize) -> Vec<Event> {
        let mut out = Vec::new();
        loop {
            match stream.next(proc) {
                Event::End => return out,
                e => out.push(e),
            }
        }
    }

    #[test]
    fn prologue_touches_every_footprint_page_once() {
        for app in App::EXTENDED {
            let inner = app.build(4, Scale::Test);
            let expected = distinct_pages(&inner.footprint());
            assert!(!expected.is_empty(), "{}: empty footprint", app.name());

            let mut s = make_serial_init_stream(app, 4, Scale::Test);
            let mut touched = Vec::new();
            loop {
                match s.next(0) {
                    Event::Mem { addr, write } => {
                        assert!(write, "init sweep must write");
                        touched.push(addr);
                    }
                    Event::Barrier { id } => {
                        assert_eq!(id, SERIAL_INIT_BARRIER);
                        break;
                    }
                    other => panic!("{}: unexpected prologue event {other:?}", app.name()),
                }
            }
            assert_eq!(touched, expected, "{}: prologue page sweep mismatch", app.name());
        }
    }

    #[test]
    fn every_processor_waits_at_the_init_barrier_first() {
        let mut s = make_serial_init_stream(App::Fmm, 4, Scale::Test);
        for p in 1..4 {
            assert_eq!(s.next(p), Event::Barrier { id: SERIAL_INIT_BARRIER });
        }
    }

    #[test]
    fn compute_stream_is_unchanged_after_the_prologue() {
        for app in [App::Lu, App::Ocean] {
            let mut plain = crate::app::make_stream(app, 2, Scale::Test);
            let mut wrapped = make_serial_init_stream(app, 2, Scale::Test);
            for p in 0..2 {
                // Skip the prologue: everything up to and including the
                // init barrier.
                loop {
                    if let Event::Barrier { id: SERIAL_INIT_BARRIER } = wrapped.next(p) {
                        break;
                    }
                }
                assert_eq!(
                    drain(&mut wrapped, p),
                    drain(&mut plain, p),
                    "{} proc {p}: compute stream perturbed",
                    app.name()
                );
            }
        }
    }

    #[test]
    fn footprint_pages_are_distinct_and_page_aligned() {
        let inner = App::Equake.build(8, Scale::Test);
        let pages = distinct_pages(&inner.footprint());
        for w in pages.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &p in &pages {
            assert_eq!(p & ((1 << PAGE_SHIFT) - 1), 0);
        }
    }
}
