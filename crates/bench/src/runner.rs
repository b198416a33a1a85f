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

/// One measured cell of the adjacency-layer baseline.
#[derive(Clone, Debug)]
pub struct AdjacencyCell {
    /// Scenario name.
    pub scenario: String,
    /// Thread count.
    pub threads: usize,
    /// Variant label (short: "coarse" / "ours").
    pub variant: String,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Active time rate in percent (time *not* spent waiting for locks),
    /// from [`dc_sync::waitstats`].
    pub active_time_percent: f64,
    /// Total lock-wait time across all threads, in milliseconds.
    pub wait_ms: f64,
    /// Sampled per-operation latency percentiles in microseconds
    /// (p50/p99/p999), from the 1-in-16 sampling in the throughput harness.
    pub p50_us: f64,
    /// 99th-percentile per-operation latency in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile per-operation latency in microseconds.
    pub p999_us: f64,
}

/// The machine-readable adjacency perf baseline emitted as
/// `BENCH_adjacency.json`, so future PRs can track the trajectory.
#[derive(Clone, Debug, Default)]
pub struct AdjacencyBaseline {
    /// Graph description.
    pub graph: String,
    /// Vertices in the measured graph.
    pub vertices: usize,
    /// Edges in the measured graph.
    pub edges: usize,
    /// Operations per thread per measurement.
    pub ops_per_thread: usize,
    /// All measured cells.
    pub cells: Vec<AdjacencyCell>,
    /// Adjacency-store occupancy after the final full-algorithm run:
    /// (materialized slots, materialized pages, spilled slots) for the
    /// non-tree store, then the tree store, then materialized forest levels.
    pub store_stats: Vec<(String, usize)>,
}

impl AdjacencyBaseline {
    /// Renders the baseline as pretty JSON.
    pub fn to_json(&self) -> String {
        use crate::report::{json_number, json_string};
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/adjacency-baseline/v3\",\n");
        out.push_str(&format!("  \"graph\": {},\n", json_string(&self.graph)));
        out.push_str(&format!("  \"vertices\": {},\n", self.vertices));
        out.push_str(&format!("  \"edges\": {},\n", self.edges));
        out.push_str(&format!("  \"ops_per_thread\": {},\n", self.ops_per_thread));
        out.push_str("  \"results\": {");
        let mut scenarios: Vec<&str> = self.cells.iter().map(|c| c.scenario.as_str()).collect();
        scenarios.dedup();
        for (si, scenario) in scenarios.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {{", json_string(scenario)));
            let cells: Vec<&AdjacencyCell> = self
                .cells
                .iter()
                .filter(|c| c.scenario == *scenario)
                .collect();
            let mut threads: Vec<usize> = cells.iter().map(|c| c.threads).collect();
            threads.dedup();
            for (ti, t) in threads.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{t}\": {{"));
                for (vi, cell) in cells.iter().filter(|c| c.threads == *t).enumerate() {
                    if vi > 0 {
                        out.push(',');
                    }
                    // Lock-wait time rides alongside every throughput number
                    // (the waitstats counters were collected by the harness
                    // all along but never serialized before).
                    out.push_str(&format!(
                        "\n        {}: {{ \"ops_per_sec\": {}, \"active_time_percent\": {}, \"wait_ms\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {} }}",
                        json_string(&cell.variant),
                        json_number(cell.ops_per_sec),
                        json_number(cell.active_time_percent),
                        json_number(cell.wait_ms),
                        json_number(cell.p50_us),
                        json_number(cell.p99_us),
                        json_number(cell.p999_us)
                    ));
                }
                out.push_str("\n      }");
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  },\n");
        out.push_str("  \"adjacency\": {");
        for (i, (key, value)) in self.store_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(key), value));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Measures the adjacency-layer baseline: the random-subset (50% reads),
/// incremental and decremental scenarios at each of `thread_counts`, for the
/// coarse-grained baseline and the full algorithm (whose `Hdt` exposes the
/// adjacency-store occupancy counters recorded alongside).
pub fn run_adjacency_baseline(
    graph: &dc_graph::Graph,
    graph_name: &str,
    thread_counts: &[usize],
    ops_per_thread: usize,
    seed: u64,
) -> AdjacencyBaseline {
    use dynconn::locking::FineLocking;
    use dynconn::nonblocking::NonBlockingVariant;

    let mut baseline = AdjacencyBaseline {
        graph: graph_name.to_string(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        ops_per_thread,
        ..Default::default()
    };
    let scenarios = [
        Scenario::RandomSubset { read_percent: 50 },
        Scenario::Incremental,
        Scenario::Decremental,
    ];
    let mut last_ours: Option<NonBlockingVariant<FineLocking>> = None;
    for scenario in scenarios {
        for &threads in thread_counts {
            let workload = Workload::generate(graph, scenario, threads, ops_per_thread, seed);
            let coarse = Variant::CoarseGrained.build(graph.num_vertices());
            let result = run_throughput(coarse.as_ref(), &workload);
            baseline.cells.push(AdjacencyCell {
                scenario: scenario.name(),
                threads,
                variant: "coarse".to_string(),
                ops_per_sec: result.ops_per_ms * 1e3,
                active_time_percent: result.active_time_percent,
                wait_ms: result.wait_nanos as f64 / 1e6,
                p50_us: result.latency.p50() as f64 / 1e3,
                p99_us: result.latency.p99() as f64 / 1e3,
                p999_us: result.latency.p999() as f64 / 1e3,
            });
            let ours = NonBlockingVariant::new(graph.num_vertices(), FineLocking::new());
            let result = run_throughput(&ours, &workload);
            baseline.cells.push(AdjacencyCell {
                scenario: scenario.name(),
                threads,
                variant: "ours".to_string(),
                ops_per_sec: result.ops_per_ms * 1e3,
                active_time_percent: result.active_time_percent,
                wait_ms: result.wait_nanos as f64 / 1e6,
                p50_us: result.latency.p50() as f64 / 1e3,
                p99_us: result.latency.p99() as f64 / 1e3,
                p999_us: result.latency.p999() as f64 / 1e3,
            });
            last_ours = Some(ours);
        }
    }
    if let Some(ours) = last_ours {
        let hdt = ours.hdt();
        baseline.store_stats = vec![
            (
                "nontree_materialized_slots".into(),
                hdt.nontree_store().materialized_slots(),
            ),
            (
                "nontree_materialized_pages".into(),
                hdt.nontree_store().materialized_pages(),
            ),
            (
                "nontree_spilled_slots".into(),
                hdt.nontree_store().spilled_slots(),
            ),
            (
                "tree_materialized_slots".into(),
                hdt.tree_store().materialized_slots(),
            ),
            (
                "tree_materialized_pages".into(),
                hdt.tree_store().materialized_pages(),
            ),
            (
                "tree_spilled_slots".into(),
                hdt.tree_store().spilled_slots(),
            ),
            (
                "materialized_forest_levels".into(),
                hdt.materialized_forest_levels(),
            ),
        ];
    }
    baseline
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
