//! Criterion micro-benchmarks for the HDT dynamic connectivity core:
//! single-threaded add/remove/query latency, including spanning-edge
//! removals that exercise the replacement search and level promotions,
//! plus benchmarks of the adjacency layer itself (the flat
//! `AdjacencyStore`: construction, add/remove churn, slot visits).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dc_graph::generators;
use dc_sync::AdjacencyStore;
use dynconn::Hdt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

fn bench_add_remove_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdt_add_remove");
    for &n in &[1_000usize, 10_000] {
        let graph = generators::erdos_renyi_nm(n, n * 4, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let hdt = Hdt::new(n);
            for e in graph.edges() {
                hdt.add_edge_locked(e.u(), e.v());
            }
            let mut rng = StdRng::seed_from_u64(17);
            b.iter(|| {
                let e = graph.edge(rng.gen_range(0..graph.num_edges()));
                hdt.remove_edge_locked(e.u(), e.v());
                hdt.add_edge_locked(e.u(), e.v());
            })
        });
    }
    group.finish();
}

fn bench_connected_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdt_connected");
    let n = 10_000;
    let graph = generators::erdos_renyi_nm(n, n * 2, 6);
    let hdt = Hdt::new(n);
    for e in graph.edges() {
        hdt.add_edge_locked(e.u(), e.v());
    }
    let mut rng = StdRng::seed_from_u64(19);
    group.bench_function("lock_free", |b| {
        b.iter(|| {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            std::hint::black_box(hdt.connected(u, v))
        })
    });
    group.bench_function("root_comparison", |b| {
        b.iter(|| {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            std::hint::black_box(hdt.connected_locked(u, v))
        })
    });
    group.finish();
}

fn bench_spanning_removal(c: &mut Criterion) {
    // Dense graph: spanning removals must find replacements (promotions).
    let mut group = c.benchmark_group("hdt_spanning_removal_with_replacement");
    let n = 2_000;
    let graph = generators::erdos_renyi_nm(n, n * 8, 7);
    group.bench_function("dense_graph", |b| {
        let hdt = Hdt::new(n);
        for e in graph.edges() {
            hdt.add_edge_locked(e.u(), e.v());
        }
        let mut rng = StdRng::seed_from_u64(23);
        b.iter(|| {
            // Remove and re-add a random edge; roughly 1/8 of them are
            // spanning and trigger the replacement machinery.
            let e = graph.edge(rng.gen_range(0..graph.num_edges()));
            hdt.remove_edge_locked(e.u(), e.v());
            hdt.add_edge_locked(e.u(), e.v());
        })
    });
    group.finish();
}

fn bench_adjacency_construction(c: &mut Criterion) {
    // The cost Hdt::new pays per adjacency store: two allocations, whatever
    // the number of (level, vertex) slots.
    let mut group = c.benchmark_group("adjacency_construction");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let levels = (n as f64).log2().floor() as usize + 2;
        group.bench_with_input(BenchmarkId::new("flat_store", n), &n, |b, _| {
            b.iter(|| AdjacencyStore::new(levels, n))
        });
    }
    group.finish();
}

fn bench_adjacency_churn(c: &mut Criterion) {
    // The write path of add_/remove_nonspanning_info: add and remove a
    // neighbor on random slots (inline regime, 0-4 neighbors per slot).
    let mut group = c.benchmark_group("adjacency_churn");
    let n = 10_000usize;
    let levels = 16;
    let store = AdjacencyStore::new(levels, n);
    let mut rng = StdRng::seed_from_u64(29);
    group.bench_function("flat_store", |b| {
        b.iter(|| {
            let level = rng.gen_range(0..levels);
            let vertex = rng.gen_range(0..n) as u32;
            let nbr = rng.gen_range(0..n as u32);
            store.add(level, vertex, nbr);
            store.remove(level, vertex, nbr)
        })
    });
    group.finish();
}

fn bench_adjacency_scan(c: &mut Criterion) {
    // The read path of the replacement search: visit every neighbor of a
    // slot through the store's stack buffer, inline (degree 3) and spilled
    // (degree 24).
    let mut group = c.benchmark_group("adjacency_scan_visit");
    let n = 4_096usize;
    for &degree in &[3usize, 24] {
        let store = AdjacencyStore::new(1, n);
        for v in 0..n {
            for d in 0..degree {
                store.add(0, v as u32, ((v * 31 + d) % n) as u32);
            }
        }
        let mut rng = StdRng::seed_from_u64(31);
        group.bench_with_input(
            BenchmarkId::new("flat_store_visitor", degree),
            &degree,
            |b, _| {
                b.iter(|| {
                    let v = rng.gen_range(0..n) as u32;
                    let mut sum = 0u64;
                    let _ = store.for_each_edge(0, v, |nbr| {
                        sum = sum.wrapping_add(nbr as u64);
                        ControlFlow::Continue(())
                    });
                    sum
                })
            },
        );
    }
    group.finish();
}

fn bench_hdt_construction(c: &mut Criterion) {
    // End-to-end effect on Hdt::new: lazy adjacency plus lazy upper forests.
    let mut group = c.benchmark_group("hdt_new");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| Hdt::new(n))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_add_remove_cycle, bench_connected_query, bench_spanning_removal,
        bench_adjacency_construction, bench_adjacency_churn, bench_adjacency_scan,
        bench_hdt_construction
}
criterion_main!(benches);
