//! Micro-benchmarks / ablations of the substrates behind Memento:
//!
//! * Space Saving updates (the Full-update cost Memento amortizes away),
//! * the exact sliding-window counter (what a naive exact approach pays),
//! * the two sampler implementations the paper contrasts in §6.2
//!   (random-number table vs geometric skips),
//! * Memento's Window update alone (the fixed per-packet cost).
//!
//! These quantify the design choices called out in ARCHITECTURE.md, "The
//! hot path & memory layout".

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use memento_bench::make_trace;
use memento_core::Memento;
use memento_sketches::{ExactWindow, GeometricSampler, SpaceSaving, TableSampler};
use memento_traces::TracePreset;

fn bench_substrates(c: &mut Criterion) {
    let packets = 100_000;
    let trace = make_trace(&TracePreset::backbone(), packets, 5);

    let mut group = c.benchmark_group("substrates");
    group.throughput(Throughput::Elements(packets as u64));
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_function("space_saving_add_4096", |b| {
        b.iter(|| {
            let mut ss = SpaceSaving::new(4096);
            for pkt in &trace {
                ss.add(pkt.flow());
            }
            ss.monitored()
        })
    });

    group.bench_function("exact_window_add_50k", |b| {
        b.iter(|| {
            let mut w = ExactWindow::new(50_000);
            for pkt in &trace {
                w.add(pkt.flow());
            }
            w.distinct()
        })
    });

    group.bench_function("memento_window_update_only", |b| {
        b.iter(|| {
            let mut m: Memento<u64> = Memento::new(4096, 50_000, 1.0, 1);
            for _ in 0..packets {
                m.window_update();
            }
            m.processed()
        })
    });

    group.bench_function("sampler_table_tau_2^-6", |b| {
        b.iter(|| {
            let mut s = TableSampler::with_seed(2f64.powi(-6), 1);
            let mut hits = 0u64;
            for _ in 0..packets {
                if s.sample() {
                    hits += 1;
                }
            }
            hits
        })
    });

    group.bench_function("sampler_geometric_tau_2^-6", |b| {
        b.iter(|| {
            let mut s = GeometricSampler::new(2f64.powi(-6), 1);
            let mut hits = 0u64;
            for _ in 0..packets {
                if s.sample() {
                    hits += 1;
                }
            }
            hits
        })
    });

    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
