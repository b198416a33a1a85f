//! Criterion comparison of the algorithm variants on a scaled-down random
//! workload (the same shape as Figures 5/6, sized so `cargo bench` finishes
//! quickly; the full sweeps live in the `figure*` binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dc_batch::Variant;
use dc_bench::{run_throughput, Scenario, Workload};
use dc_graph::generators;

fn bench_variants_random_scenario(c: &mut Criterion) {
    let n = 2_000;
    let graph = generators::preferential_attachment(n, 8, 3);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .max(2);
    let variants = [
        Variant::CoarseGrained,
        Variant::CoarseNonBlockingReads,
        Variant::FineNonBlockingReads,
        Variant::OurAlgorithm,
        Variant::OurAlgorithmCoarse,
        Variant::FlatCombiningNonBlockingReads,
    ];
    for read_percent in [80u32, 99u32] {
        let mut group = c.benchmark_group(format!("variants_random_{read_percent}pct_reads"));
        group.sample_size(10);
        let workload = Workload::generate(
            &graph,
            Scenario::RandomSubset { read_percent },
            threads,
            2_000,
            11,
        );
        for variant in variants {
            group.bench_with_input(
                BenchmarkId::from_parameter(variant.name()),
                &variant,
                |b, &variant| {
                    b.iter(|| {
                        let structure = variant.build(n);
                        std::hint::black_box(run_throughput(structure.as_ref(), &workload))
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_variants_random_scenario
}
criterion_main!(benches);
