//! Shared driver behind the per-figure binaries.
//!
//! Every figure of the evaluation is "measure quantity Q for a set of
//! variants over a set of graphs and thread counts"; this module implements
//! that loop once so each binary only declares its scenario, variant subset
//! and measured quantity.

use crate::config::BenchConfig;
use crate::report::FigureData;
use crate::scenario::{Scenario, Workload};
use crate::throughput::{run_throughput, ThroughputResult};
use dc_batch::Variant;
use dc_graph::GraphSpec;

/// Which quantity a figure reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    /// Operations per millisecond (Figures 5, 6, 9, 10).
    Throughput,
    /// Active time rate in percent (Figures 7, 8, 11, 12).
    ActiveTime,
}

impl Measure {
    fn extract(&self, result: &ThroughputResult) -> f64 {
        match self {
            Measure::Throughput => result.ops_per_ms,
            Measure::ActiveTime => result.active_time_percent,
        }
    }
}

/// Runs one full figure: a thread sweep over the small graphs plus a
/// max-parallelism measurement on the large graphs, and prints the resulting
/// tables (also dumping JSON under `target/figures/`).
pub fn run_figure(
    name: &str,
    title: &str,
    scenario: Scenario,
    variants: &[Variant],
    measure: Measure,
    include_large: bool,
    config: &BenchConfig,
) -> FigureData {
    let catalog = config.catalog();
    let mut figure = FigureData::new(title, config.thread_counts.clone());

    for &spec in GraphSpec::table1() {
        let graph = catalog.build(spec);
        eprintln!(
            "[{}] graph {:<28} |V|={} |E|={}",
            name,
            spec.name(),
            graph.num_vertices(),
            graph.num_edges()
        );
        for &threads in &config.thread_counts {
            let workload = Workload::generate(
                &graph,
                scenario,
                threads,
                config.ops_per_thread,
                config.seed,
            );
            for &variant in variants {
                let structure = variant.build(graph.num_vertices());
                let result = run_throughput(structure.as_ref(), &workload);
                figure.record(spec.name(), variant.name(), measure.extract(&result));
            }
        }
    }

    if include_large {
        for &spec in GraphSpec::table2() {
            let graph = catalog.build(spec);
            eprintln!(
                "[{}] graph {:<28} |V|={} |E|={} ({} threads)",
                name,
                spec.name(),
                graph.num_vertices(),
                graph.num_edges(),
                config.max_threads
            );
            let workload = Workload::generate(
                &graph,
                scenario,
                config.max_threads,
                config.ops_per_thread,
                config.seed,
            );
            for &variant in variants {
                let structure = variant.build(graph.num_vertices());
                let result = run_throughput(structure.as_ref(), &workload);
                figure.record(
                    &format!("{} (large, {} threads)", spec.name(), config.max_threads),
                    variant.name(),
                    measure.extract(&result),
                );
            }
        }
    }

    println!("{}", figure.render_text());
    match figure.write_json(name) {
        Ok(path) => eprintln!("[{}] JSON written to {}", name, path.display()),
        Err(err) => eprintln!("[{}] could not write JSON: {err}", name),
    }
    figure
}

/// The variant subsets used by the paper's plots.
pub mod variant_sets {
    use dc_batch::Variant;

    /// All thirteen variants (Figures 5 and 6).
    pub fn throughput_all() -> Vec<Variant> {
        Variant::all().to_vec()
    }

    /// The subset shown in the active-time plots (Figures 7 and 8).
    pub fn active_time_random() -> Vec<Variant> {
        vec![
            Variant::CoarseGrained,
            Variant::CoarseNonBlockingReads,
            Variant::FineGrained,
            Variant::FineNonBlockingReads,
            Variant::OurAlgorithm,
            Variant::OurAlgorithmCoarse,
        ]
    }

    /// The subset shown in the incremental/decremental plots (Figures 9, 10).
    pub fn incremental_decremental() -> Vec<Variant> {
        vec![
            Variant::CoarseGrained,
            Variant::CoarseHtm,
            Variant::FineGrained,
            Variant::OurAlgorithm,
            Variant::OurAlgorithmCoarse,
            Variant::OurAlgorithmCoarseHtm,
            Variant::FlatCombiningNonBlockingReads,
        ]
    }

    /// The subset shown in the incremental/decremental active-time plots
    /// (Figures 11 and 12).
    pub fn active_time_incremental() -> Vec<Variant> {
        vec![
            Variant::CoarseGrained,
            Variant::FineGrained,
            Variant::OurAlgorithm,
            Variant::OurAlgorithmCoarse,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_extracts_the_right_field() {
        let result = ThroughputResult {
            threads: 2,
            operations: 100,
            millis: 10.0,
            ops_per_ms: 10.0,
            active_time_percent: 93.0,
            wait_nanos: 1_400_000,
            wait_events: 7,
            latency: crate::stats::LatencyHistogram::new(),
        };
        assert_eq!(Measure::Throughput.extract(&result), 10.0);
        assert_eq!(Measure::ActiveTime.extract(&result), 93.0);
    }

    #[test]
    fn variant_sets_match_paper_legends() {
        assert_eq!(variant_sets::throughput_all().len(), 13);
        assert_eq!(variant_sets::active_time_random().len(), 6);
        assert_eq!(variant_sets::incremental_decremental().len(), 7);
        assert_eq!(variant_sets::active_time_incremental().len(), 4);
    }
}
