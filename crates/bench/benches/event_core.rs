//! Criterion benches of the event-calendar serving core: the raw heap
//! push/pop discipline (stale-entry skipping included) and the full
//! boundary-execution hot path of `ServeSimulator::run_traced` on a
//! fleet-sized placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exion_serve::{
    EventCalendar, EventKind, Placement, ServeConfig, ServeSimulator, TraceConfig, TrafficPattern,
    WorkloadMix,
};
use exion_sim::config::HwConfig;
use exion_sim::partition::PartitionStrategy;
use std::hint::black_box;

/// Heap discipline alone: schedule every unit, then repeatedly pop the
/// minimum and reschedule it one step ahead — the steady-state shape of
/// the cluster loop, with a reschedule (superseded entry left to die in
/// the heap) every 16th op to exercise the lazy-invalidation path.
fn bench_calendar_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_calendar");
    for &units in &[8usize, 128, 1024] {
        group.bench_with_input(BenchmarkId::new("churn", units), &units, |b, &units| {
            b.iter(|| {
                let mut cal = EventCalendar::new(units);
                for u in 0..units {
                    cal.schedule_unit(u, u as f64, EventKind::UnitBoundary);
                }
                for step in 0..10_000u64 {
                    let ev = cal.pop().expect("units stay scheduled");
                    let next = ev.at_ms + 1.0 + (ev.unit % 7) as f64;
                    cal.schedule_unit(ev.unit, next, EventKind::UnitBoundary);
                    if step % 16 == 0 {
                        cal.reschedule_unit(ev.unit, next + 0.5, EventKind::UnitBoundary);
                    }
                }
                black_box(cal.len())
            })
        });
    }
    group.finish();
}

/// The full boundary-execution hot path: a short multi-tenant run over a
/// mixed replica/gang fleet, arrivals streamed lazily — a miniature of
/// perfbench's `serve_fleet` workload (102 units), which measures the same
/// loop end to end.
fn bench_cluster_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_loop");
    group.sample_size(10);
    for &(replicas, gangs) in &[(4usize, 1usize), (24, 4)] {
        let units = replicas + gangs;
        let placement = Placement::mixed(replicas, gangs, PartitionStrategy::Tensor { ways: 2 });
        let config = ServeConfig::builder(HwConfig::exion4())
            .placement(placement)
            .build();
        let mix = WorkloadMix::multi_tenant();
        let capacity = ServeSimulator::new(config.clone()).capacity_estimate_rps(&mix);
        let trace = TraceConfig {
            pattern: TrafficPattern::Poisson {
                rate_rps: 0.8 * capacity,
            },
            horizon_ms: 300.0,
            seed: 0x5E17E,
            mix,
        };
        group.bench_with_input(BenchmarkId::new("run_traced", units), &units, |b, _| {
            b.iter(|| {
                let report = ServeSimulator::new(config.clone()).run(black_box(&trace));
                black_box(report.completed)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_calendar_churn, bench_cluster_loop);
criterion_main!(benches);
