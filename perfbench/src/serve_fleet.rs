//! `serve-fleet`: a `PhaseServer` driven from one thread in a closed loop
//! at round granularity. Each round offers, runs `run_batch_parallel`,
//! drains, and then diagnoses and churns; the next round starts after that.
//!
//! The fleet is ~1k single-node synthetic tenants plus a few 16-node
//! tenants whose per-tenant diagnosis sinks give `tenant_diagnosis`
//! multi-node work. Seeded stalls, slow consumers and bursts larger than
//! the ingest queue make backpressure fire; forced churn evicts the oldest
//! single-node tenant and admits a fresh one every other round. Every
//! signature is generated during set-up from `--seed`.
//!
//! One repetition is a whole episode on a fresh server: admit, run the
//! rounds, drain everything still in flight, evict the fleet.

use std::collections::VecDeque;
use std::time::Instant;

use dsm_phase::detector::DetectorMode;
use dsm_phase::signature::IntervalSignature;
use dsm_phase::Thresholds;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, SynthStream, TenantConfig, TenantId};
use dsm_sim::util::splitmix64;

use crate::span::Tracer;
use crate::util::{median_setup, percentile_ns, ratio, run_reps, Fnv};
use crate::{Args, Report};

/// Concurrent single-node tenants.
const TENANTS: usize = 1024;
/// 16-node tenants, admitted first and never churned.
const WIDE: usize = 4;
const WIDE_NODES: usize = 16;
/// Rounds per episode before the final drain.
const ROUNDS: u64 = 96;
/// Evict the oldest single-node tenant and admit a fresh one this often.
const CHURN_EVERY: u64 = 2;
/// Take every 16-node tenant's diagnosis this often.
const DIAGNOSE_EVERY: u64 = 8;
/// Signatures per single-node script, and intervals per node of a wide one.
const SINGLE_LEN: usize = 160;
const WIDE_LEN: usize = 48;
/// Signatures a wide tenant offers per round (round-robin over its nodes).
const WIDE_PER_ROUND: usize = 4;
/// Disturbances, drawn per (script, round) in parts per million.
const STALL_PPM: u64 = 30_000;
const STALL_ROUNDS: u64 = 3;
const BURST_PPM: u64 = 50_000;
/// Larger than the ingest queue, so a burst always meets `Busy`.
const BURST: usize = 24;
const SLOW_PPM: u64 = 200_000;

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 16,
        queue_capacity: 16,
        output_capacity: 16,
        batch_size: 8,
        max_tenants: TENANTS + WIDE,
        per_tenant_metrics: false,
        diagnose_window: 24,
    }
}

/// One tenant's pre-generated signatures.
struct Script {
    cfg: TenantConfig,
    sigs: Vec<IntervalSignature>,
}

fn scripts(seed: u64) -> Vec<Script> {
    let thr = Thresholds {
        bbv: 0.4,
        dds: 0.25,
    };
    let stream = |k: usize, nodes: usize| {
        SynthStream::new(
            splitmix64(seed ^ (k as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
            nodes,
            dsm_phase::DEFAULT_BBV_ENTRIES,
        )
    };
    let spares = (ROUNDS / CHURN_EVERY) as usize;
    (0..WIDE + TENANTS + spares)
        .map(|k| {
            if k < WIDE {
                let s = stream(k, WIDE_NODES);
                Script {
                    cfg: TenantConfig::new(WIDE_NODES, DetectorMode::BbvDdv, thr),
                    sigs: (0..WIDE_LEN as u64)
                        .flat_map(|i| (0..WIDE_NODES).map(move |p| s.signature(p, i)))
                        .collect(),
                }
            } else {
                let s = stream(k, 1);
                Script {
                    cfg: TenantConfig::new(1, DetectorMode::BbvDdv, thr),
                    sigs: (0..SINGLE_LEN as u64).map(|i| s.signature(0, i)).collect(),
                }
            }
        })
        .collect()
}

/// Seeded per-(script, round) disturbance draw.
fn draw(seed: u64, what: u64, script: usize, round: u64, ppm: u64) -> bool {
    let h = splitmix64(
        seed ^ what.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (script as u64 + 1).rotate_left(24)
            ^ round.wrapping_mul(0xd134_2543_de82_ef95),
    );
    h % 1_000_000 < ppm
}

struct Active {
    id: TenantId,
    script: usize,
    /// Next signature of the script to offer.
    next: usize,
    stalled_until: u64,
    /// Offer instants of accepted, not yet delivered signatures.
    in_flight: VecDeque<Instant>,
}

/// One episode's books, counts, latencies and outcome digest.
#[derive(Default)]
struct Rep {
    offers: u64,
    accepted: u64,
    busy: u64,
    classified: u64,
    delivered: u64,
    abandoned: u64,
    diagnoses: u64,
    /// The server's own totals, for the cross-check.
    server_books: (u64, u64, u64, u64),
    undelivered_at_end: u64,
    lat_p50_ns: u64,
    lat_p99_ns: u64,
    digest: u64,
}

impl Rep {
    /// Offered = accepted + refused, accepted = delivered + abandoned, the
    /// server's totals agree, and nothing is left in flight.
    fn books_balance(&self) -> bool {
        self.offers == self.accepted + self.busy
            && self.accepted == self.delivered + self.abandoned
            && self.undelivered_at_end == 0
            && self.server_books == (self.offers, self.accepted, self.busy, self.delivered)
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("serve.offers", self.offers),
            ("serve.classified", self.classified),
            ("serve.busy", self.busy),
            ("serve.delivered", self.delivered),
            ("serve.abandoned", self.abandoned),
            ("diagnose.calls", self.diagnoses),
            ("outcome digest", self.digest),
        ]
    }
}

struct Episode<'a> {
    srv: PhaseServer,
    scripts: &'a [Script],
    active: Vec<Active>,
    next_script: usize,
    rep: Rep,
    latencies: Vec<u64>,
    hash: Fnv,
    threads: usize,
}

impl Episode<'_> {
    fn admit(&mut self, tr: &mut Tracer) {
        let script = self.next_script;
        self.next_script += 1;
        let id = tr
            .span("serve.churn", || self.srv.admit(self.scripts[script].cfg))
            .expect("the fleet fits max_tenants");
        self.active.push(Active {
            id,
            script,
            next: 0,
            stalled_until: 0,
            in_flight: VecDeque::new(),
        });
    }

    /// Deliver everything `slow` does not hold back; returns how many
    /// tenants still have work in flight.
    fn deliver(&mut self, tr: &mut Tracer, slow: &[bool]) -> usize {
        let mut out = Vec::new();
        tr.span("serve.deliver", || {
            for (a, &hold) in self.active.iter_mut().zip(slow) {
                if hold {
                    continue;
                }
                let got = self
                    .srv
                    .drain_output(a.id, usize::MAX)
                    .expect("live tenant");
                let now = Instant::now();
                for _ in &got {
                    let t0 = a
                        .in_flight
                        .pop_front()
                        .expect("delivered an accepted signature");
                    self.latencies.push((now - t0).as_nanos() as u64);
                }
                out.push((a.script, got));
            }
        });
        for (script, got) in out {
            self.rep.delivered += got.len() as u64;
            for c in got {
                for x in [script as u64, c.proc as u64, c.index, c.phase_id as u64] {
                    self.hash.u64(x);
                }
                self.hash.u64(c.is_new_phase as u64);
            }
        }
        self.active
            .iter()
            .filter(|a| !a.in_flight.is_empty())
            .count()
    }

    fn round(&mut self, tr: &mut Tracer, round: u64, seed: u64) {
        // Plan the round outside the spans: who offers what, who drains.
        let mut plan: Vec<(usize, Vec<IntervalSignature>)> = Vec::new();
        let mut slow = Vec::with_capacity(self.active.len());
        for (i, a) in self.active.iter_mut().enumerate() {
            slow.push(draw(seed, 3, a.script, round, SLOW_PPM));
            if round < a.stalled_until {
                continue;
            }
            if draw(seed, 1, a.script, round, STALL_PPM) {
                a.stalled_until = round + STALL_ROUNDS;
                continue;
            }
            let n = if a.script < WIDE {
                WIDE_PER_ROUND
            } else if draw(seed, 2, a.script, round, BURST_PPM) {
                BURST
            } else {
                1
            };
            let sigs = &self.scripts[a.script].sigs;
            let end = (a.next + n).min(sigs.len());
            if a.next < end {
                plan.push((i, sigs[a.next..end].to_vec()));
            }
        }

        let rep = &mut self.rep;
        let (srv, active) = (&mut self.srv, &mut self.active);
        tr.span("serve.ingest", || {
            for (i, sigs) in plan {
                let a = &mut active[i];
                for sig in sigs {
                    rep.offers += 1;
                    match srv.offer(a.id, sig).expect("well-formed signature") {
                        Ingest::Enqueued { .. } => {
                            a.in_flight.push_back(Instant::now());
                            a.next += 1;
                            rep.accepted += 1;
                        }
                        Ingest::Busy => {
                            // Back off until the next round.
                            rep.busy += 1;
                            break;
                        }
                    }
                }
            }
        });
        let threads = self.threads;
        self.rep.classified += tr.span("serve.batch", || self.srv.run_batch_parallel(threads));
        self.deliver(tr, &slow);

        if round % DIAGNOSE_EVERY == DIAGNOSE_EVERY - 1 {
            let wide: Vec<TenantId> = self.active[..WIDE].iter().map(|a| a.id).collect();
            let found = tr.span("diagnose.engine", || {
                wide.iter()
                    .map(|&id| {
                        let d = self.srv.tenant_diagnosis(id, None).expect("live tenant");
                        d.map_or(0, |d| d.diagnosis.outliers.len() as u64)
                    })
                    .collect::<Vec<_>>()
            });
            self.rep.diagnoses += found.len() as u64;
            found.iter().for_each(|&n| self.hash.u64(n));
        }

        if round % CHURN_EVERY == CHURN_EVERY - 1 && self.next_script < self.scripts.len() {
            // The oldest single-node tenant leaves; a fresh one arrives.
            let a = self.active.remove(WIDE);
            let summary = tr
                .span("serve.churn", || self.srv.evict(a.id))
                .expect("live tenant");
            self.rep.abandoned += summary.pending + summary.undelivered;
            self.admit(tr);
        }
    }
}

fn episode(tr: &mut Tracer, scripts: &[Script], seed: u64, threads: usize) -> Rep {
    let mut s = Episode {
        srv: PhaseServer::new(serve_config()),
        scripts,
        active: Vec::new(),
        next_script: 0,
        rep: Rep::default(),
        latencies: Vec::new(),
        hash: Fnv::default(),
        threads,
    };
    for _ in 0..WIDE + TENANTS {
        s.admit(tr);
    }
    for round in 0..ROUNDS {
        s.round(tr, round, seed);
    }
    // Final drain: no new offers, prompt consumers, until nothing is in
    // flight.
    let prompt = vec![false; s.active.len()];
    let mut guard = 0;
    loop {
        let threads = s.threads;
        s.rep.classified += tr.span("serve.batch", || s.srv.run_batch_parallel(threads));
        if s.deliver(tr, &prompt) == 0 {
            break;
        }
        guard += 1;
        assert!(guard < 10_000, "the final drain stopped making progress");
    }
    let books = s.srv.totals();
    s.rep.server_books = (
        books.offered,
        books.accepted,
        books.rejected,
        books.delivered,
    );
    for a in std::mem::take(&mut s.active) {
        let summary = tr
            .span("serve.churn", || s.srv.evict(a.id))
            .expect("live tenant");
        s.rep.undelivered_at_end += summary.pending + summary.undelivered;
    }
    s.rep.lat_p50_ns = percentile_ns(&mut s.latencies, 0.50);
    s.rep.lat_p99_ns = percentile_ns(&mut s.latencies, 0.99);
    for x in [
        s.rep.offers,
        s.rep.accepted,
        s.rep.busy,
        s.rep.classified,
        s.rep.abandoned,
    ] {
        s.hash.u64(x);
    }
    s.rep.digest = s.hash.0;
    s.rep
}

pub fn run(args: &Args) -> Result<Report, String> {
    let threads = crate::workers();
    let (setup_s, scripts) = median_setup(|| scripts(args.seed));
    let reps = run_reps(args.seconds, 5, args.trace, |tr| {
        episode(tr, &scripts, args.seed, threads)
    });

    let mut report = Report::default();
    let first = reps.all().next().expect("at least one episode");
    let unbalanced = reps.all().filter(|r| !r.books_balance()).count();
    report.check(
        "books balance in every episode",
        unbalanced == 0,
        format!(
            "{unbalanced} unbalanced; offered {} = accepted {} + refused {}; \
             accepted = delivered {} + abandoned {}",
            first.offers, first.accepted, first.busy, first.delivered, first.abandoned
        ),
    );
    report.exact_counts(&reps, Rep::counts, &[]);
    report.common_e2e(setup_s, &reps);

    report.layer("serve.offers", first.offers as f64);
    report.layer("serve.classified", first.classified as f64);
    report.layer("serve.busy", first.busy as f64);
    report.layer("serve.delivered", first.delivered as f64);
    report.layer("serve.abandoned", first.abandoned as f64);
    report.layer("diagnose.calls", first.diagnoses as f64);
    report.layer(
        "serve_cls_per_s",
        reps.median_of(|t, r| ratio(r.classified as f64, t.wall_s)),
    );
    report.layer(
        "serve_lat_p50_us",
        reps.median_of(|_, r| r.lat_p50_ns as f64 / 1e3),
    );
    report.layer(
        "serve_lat_p99_us",
        reps.median_of(|_, r| r.lat_p99_ns as f64 / 1e3),
    );
    report.layer(
        "serve_refused_frac",
        ratio(first.busy as f64, first.offers as f64),
    );
    if args.trace {
        let n = reps.traced.len() as f64;
        let secs = |name: &str| reps.tracer.secs(name) / n;
        report.layer("serve.ingest_s", secs("serve.ingest"));
        report.layer(
            "serve.ingest_ns_per_offer",
            ratio(secs("serve.ingest") * 1e9, first.offers as f64),
        );
        report.layer("serve.batch_s", secs("serve.batch"));
        report.layer(
            "serve.batch_ns_per_cls",
            ratio(secs("serve.batch") * 1e9, first.classified as f64),
        );
        report.layer("serve.deliver_s", secs("serve.deliver"));
        report.layer("serve.churn_s", secs("serve.churn"));
        report.layer("diagnose.engine_s", secs("diagnose.engine"));
        report.layer_times(&reps);
    }
    report.provenance = vec![
        (
            "tenants",
            format!("{TENANTS} single-node + {WIDE} x {WIDE_NODES}-node"),
        ),
        ("rounds", ROUNDS.to_string()),
        ("batch_threads", threads.to_string()),
        ("samples", reps.untraced.len().to_string()),
        ("traced_samples", reps.traced.len().to_string()),
    ];
    Ok(report)
}
