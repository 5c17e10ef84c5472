//! Property suite for the streaming phase server.
//!
//! Three invariants, over arbitrary tenant fleets and arrival schedules:
//!
//! 1. **Interleaving invariance** — per-tenant state is fully isolated, so
//!    any interleaving of N tenants' arrivals yields each tenant the exact
//!    classification stream a solo run yields.
//! 2. **Backpressure conservation** — `accepted + rejected == offered`,
//!    and every accepted signature is accounted for at eviction as
//!    classified-or-pending, every classification as delivered-or-
//!    undelivered. Nothing is ever dropped silently, and the telemetry
//!    snapshot reports the same books.
//! 3. **Determinism** — a fixed seed and schedule reproduce byte-identical
//!    outputs, reports, and latency percentiles.

use proptest::prelude::*;

use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::ClassifiedInterval;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, SynthStream, TenantConfig, TenantId};
use dsm_telemetry::MetricValue;

const THR: Thresholds = Thresholds { bbv: 0.4, dds: 0.25 };

fn tenant_cfg() -> TenantConfig {
    TenantConfig::new(1, DetectorMode::BbvDdv, THR)
}

/// Admit one tenant per stream and feed signatures following `schedule`
/// (a sequence of tenant indices; each occurrence sends that tenant's next
/// signature, retrying through backpressure). Returns per-tenant outputs.
fn feed(
    cfg: ServeConfig,
    streams: &[(SynthStream, usize)],
    schedule: &[usize],
) -> (PhaseServer, Vec<TenantId>, Vec<Vec<ClassifiedInterval>>) {
    feed_threaded(cfg, streams, schedule, 1)
}

/// [`feed`], with batches run on up to `threads` host threads.
fn feed_threaded(
    cfg: ServeConfig,
    streams: &[(SynthStream, usize)],
    schedule: &[usize],
    threads: usize,
) -> (PhaseServer, Vec<TenantId>, Vec<Vec<ClassifiedInterval>>) {
    let mut srv = PhaseServer::new(cfg);
    let ids: Vec<TenantId> = streams.iter().map(|_| srv.admit(tenant_cfg()).unwrap()).collect();
    let mut out: Vec<Vec<ClassifiedInterval>> = vec![Vec::new(); streams.len()];
    let mut next = vec![0u64; streams.len()];

    let drain_all =
        |srv: &mut PhaseServer, out: &mut Vec<Vec<ClassifiedInterval>>, ids: &[TenantId]| {
            for (k, &id) in ids.iter().enumerate() {
                out[k].extend(srv.drain_output(id, usize::MAX).unwrap());
            }
        };

    // The schedule, then each tenant's leftovers in tenant order: every
    // signature is sent exactly once regardless of the schedule's shape.
    let full: Vec<usize> = schedule
        .iter()
        .copied()
        .chain((0..streams.len()).flat_map(|k| std::iter::repeat_n(k, streams[k].1)))
        .collect();
    for k in full {
        let (stream, len) = streams[k];
        if next[k] as usize >= len {
            continue;
        }
        let sig = stream.signature(0, next[k]);
        loop {
            match srv.offer(ids[k], sig.clone()).unwrap() {
                Ingest::Enqueued { .. } => break,
                Ingest::Busy => {
                    srv.run_batch_parallel(threads);
                    drain_all(&mut srv, &mut out, &ids);
                }
            }
        }
        next[k] += 1;
    }
    while srv.run_batch_parallel(threads) > 0 {
        drain_all(&mut srv, &mut out, &ids);
    }
    drain_all(&mut srv, &mut out, &ids);
    (srv, ids, out)
}

fn arb_fleet() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..1_000, 1usize..40), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any arrival interleaving gives each tenant its solo classification.
    #[test]
    fn interleaving_invariance(
        fleet in arb_fleet(),
        schedule in prop::collection::vec(0usize..6, 0..120),
    ) {
        let streams: Vec<(SynthStream, usize)> = fleet
            .iter()
            .map(|&(seed, len)| (SynthStream::new(seed, 1, 32), len))
            .collect();
        let schedule: Vec<usize> = schedule.iter().map(|&s| s % streams.len()).collect();
        let cfg = ServeConfig { shards: 3, queue_capacity: 4, batch_size: 2, ..ServeConfig::default() };
        let (_, _, interleaved) = feed(cfg, &streams, &schedule);
        for (k, stream) in streams.iter().enumerate() {
            let (_, _, solo) = feed(ServeConfig::default(), &[*stream], &[]);
            prop_assert_eq!(&interleaved[k], &solo[0], "tenant {} diverged from solo run", k);
        }
    }

    /// Offered = accepted + rejected; accepted = classified + pending;
    /// classified = delivered + undelivered — over a random sequence of
    /// admits, offers, batches, drains and evicts (without retries, Busy
    /// outcomes stay rejected). After every step the telemetry snapshot,
    /// which the server derives from its own books, agrees with `report()`,
    /// the admit/evict counts and, per live tenant, `stats` and
    /// `queue_depth`.
    #[test]
    fn backpressure_conservation(
        ops in prop::collection::vec((0u8..5, 0usize..8, 0u64..1_000), 1..160),
        queue_capacity in 1usize..5,
        per_tenant_metrics in 0u8..2,
        diagnose in 0u8..2,
    ) {
        let cfg = ServeConfig {
            queue_capacity,
            output_capacity: 4,
            batch_size: 2,
            per_tenant_metrics: per_tenant_metrics == 1,
            diagnose_window: if diagnose == 1 { 8 } else { 0 },
            ..ServeConfig::default()
        };
        let mut srv = PhaseServer::new(cfg);
        // Live tenants in admission order: id, stream, next index and the
        // caller-side tally of offered/accepted/rejected/delivered.
        let mut live: Vec<(TenantId, SynthStream, u64, [u64; 4])> = Vec::new();
        let (mut admitted, mut evicted, mut total_pending) = (0u64, 0u64, 0u64);
        for (op, pick, seed) in ops {
            let k = pick % live.len().max(1);
            match op {
                0 => {
                    let id = srv.admit(tenant_cfg()).unwrap();
                    live.push((id, SynthStream::new(seed, 1, 32), 0, [0; 4]));
                    admitted += 1;
                }
                1 if !live.is_empty() => {
                    let (id, stream, next, tally) = &mut live[k];
                    tally[0] += 1;
                    match srv.offer(*id, stream.signature(0, *next)).unwrap() {
                        Ingest::Enqueued { .. } => tally[1] += 1,
                        Ingest::Busy => tally[2] += 1, // caller drops it: still counted
                    }
                    *next += 1;
                }
                2 => {
                    srv.run_batch();
                }
                3 if !live.is_empty() => {
                    let (id, _, _, tally) = &mut live[k];
                    tally[3] += srv.drain_output(*id, usize::MAX).unwrap().len() as u64;
                }
                4 if !live.is_empty() => {
                    let (id, _, _, tally) = live.remove(k);
                    let s = srv.stats(id).unwrap();
                    prop_assert_eq!([s.offered, s.accepted, s.rejected, s.delivered], tally);
                    prop_assert_eq!(s.accepted + s.rejected, s.offered, "conservation violated");
                    prop_assert!(s.queue_high_water <= queue_capacity as u64);
                    let summary = srv.evict(id).unwrap();
                    // Every accepted signature is classified or explicitly
                    // pending; every classification delivered or explicitly
                    // undelivered.
                    prop_assert_eq!(summary.stats.classified + summary.pending, s.accepted);
                    prop_assert_eq!(
                        summary.stats.delivered + summary.undelivered,
                        summary.stats.classified
                    );
                    total_pending += summary.pending;
                    evicted += 1;
                }
                _ => {}
            }

            let snap = srv.telemetry_snapshot();
            let metric = |name: &str| snap.metrics.iter().find(|m| m.name == name).map(|m| &m.value);
            let counter = |name: &str| match metric(name) {
                Some(MetricValue::Counter(v)) => Some(*v),
                _ => None,
            };
            let gauge = |name: &str| match metric(name) {
                Some(MetricValue::Gauge(v)) => Some(*v),
                _ => None,
            };
            let report = srv.report();
            let t = report.totals;
            prop_assert_eq!(counter("serve/admitted"), Some(admitted));
            prop_assert_eq!(counter("serve/evicted"), Some(evicted));
            prop_assert_eq!(counter("serve/offered"), Some(t.offered));
            prop_assert_eq!(counter("serve/accepted"), Some(t.accepted));
            prop_assert_eq!(counter("serve/rejected"), Some(t.rejected));
            prop_assert_eq!(counter("serve/classified"), Some(t.classified));
            prop_assert_eq!(counter("serve/delivered"), Some(t.delivered));
            prop_assert_eq!(counter("serve/output_stalls"), Some(t.output_stalls));
            prop_assert_eq!(gauge("serve/live_tenants"), Some(report.live_tenants as f64));
            prop_assert_eq!(
                gauge("serve/resident_footprint_vectors"),
                Some(report.resident_footprint_vectors as f64)
            );
            prop_assert_eq!(report.live_tenants as u64 + report.retired_tenants, admitted);
            for (id, _, _, tally) in &live {
                let s = srv.stats(*id).unwrap();
                prop_assert_eq!([s.offered, s.accepted, s.rejected, s.delivered], *tally);
                let series = |m: &str| format!("serve/tenant/{}/{m}", id.0);
                if cfg.per_tenant_metrics {
                    prop_assert_eq!(counter(&series("offered")), Some(s.offered));
                    prop_assert_eq!(counter(&series("busy")), Some(s.rejected));
                    prop_assert_eq!(counter(&series("classified")), Some(s.classified));
                    let depth = srv.queue_depth(*id).unwrap() as f64;
                    prop_assert_eq!(gauge(&series("queue_depth")), Some(depth));
                    let diag = srv.tenant_diagnosis(*id, None).unwrap();
                    prop_assert_eq!(
                        counter(&series("diagnose/observed")),
                        diag.as_ref().map(|d| d.observed)
                    );
                    prop_assert_eq!(
                        gauge(&series("diagnose/realigns")),
                        diag.as_ref().map(|d| d.realigns as f64)
                    );
                } else {
                    prop_assert_eq!(counter(&series("offered")), None);
                }
            }
        }
        for (id, _, _, _) in live {
            total_pending += srv.evict(id).unwrap().pending;
        }
        prop_assert_eq!(srv.live_tenants(), 0);
        prop_assert_eq!(srv.resident_footprint_vectors(), 0, "evicted state leaked");
        let totals = srv.totals();
        prop_assert_eq!(totals.offered, totals.accepted + totals.rejected);
        prop_assert_eq!(totals.classified + total_pending, totals.accepted);
    }

    /// Same seed, same schedule → byte-identical everything, at any shard
    /// parallelism.
    #[test]
    fn deterministic_under_fixed_seed(
        fleet in arb_fleet(),
        schedule in prop::collection::vec(0usize..6, 0..60),
        threads in 1usize..5,
    ) {
        let streams: Vec<(SynthStream, usize)> = fleet
            .iter()
            .map(|&(seed, len)| (SynthStream::new(seed, 1, 32), len))
            .collect();
        let schedule: Vec<usize> = schedule.iter().map(|&s| s % streams.len()).collect();
        let cfg = ServeConfig { shards: 4, queue_capacity: 3, batch_size: 2, ..ServeConfig::default() };
        let (srv_a, _, out_a) = feed(cfg, &streams, &schedule);
        let (srv_b, _, out_b) = feed(cfg, &streams, &schedule);
        prop_assert_eq!(&out_a, &out_b, "rerun diverged");
        prop_assert_eq!(srv_a.report(), srv_b.report());
        prop_assert_eq!(
            srv_a.latency_percentiles(&[0.5, 0.99, 0.999]),
            srv_b.latency_percentiles(&[0.5, 0.99, 0.999])
        );
        // Shard-parallel batches reproduce the serial run exactly —
        // outputs, report, and latency distribution.
        let (srv_p, _, out_p) = feed_threaded(cfg, &streams, &schedule, threads);
        prop_assert_eq!(&out_a, &out_p, "parallel batches diverged from serial");
        prop_assert_eq!(srv_a.report(), srv_p.report());
    }
}
