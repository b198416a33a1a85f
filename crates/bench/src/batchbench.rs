//! The batch-engine benchmark: bursty traffic, bulk loading and the
//! batch-size/compaction trade-off, emitted as `BENCH_batch.json`.
//!
//! The batch subsystem (`dc_batch`) opens a workload class the single-op
//! API cannot express — clients that naturally produce *bursts* of
//! operations (bulk loaders, queued mutations, flash-crowd traffic on a hot
//! edge set). This module measures it four ways:
//!
//! * **burst** — every thread ships bursts shaped like batched client
//!   traffic (a churn-heavy mutation block over a hot edge pool, then a
//!   read block) through `apply_batch`, versus the *same per-thread
//!   operation streams* issued one call at a time through every paper
//!   variant. The headline is the speedup over the best single-op variant,
//!   plus the compaction ratio (applied / submitted updates) showing how
//!   much work annihilation cancelled before it reached the tree.
//! * **bulk-load** — loading a generated graph through chunked
//!   `apply_batch` versus one-at-a-time `add_edge`.
//! * **batch-size sweep** — the same churn stream applied at several batch
//!   sizes: throughput and compaction ratio per size (bigger batches
//!   annihilate more).
//! * **adapter scenarios** — the engine's `DynamicConnectivity` adapter
//!   running the three *existing* bench scenarios unchanged through
//!   [`crate::throughput::run_throughput`], next to the paper's variant 9,
//!   proving drop-in compatibility.
//!
//! Every cell carries the lock-wait statistics from [`dc_sync::waitstats`]
//! and batch-amortized latency percentiles (p50/p99/p999) alongside
//! throughput.

use crate::report::{json_number, json_string};
use crate::scenario::{Scenario, Workload};
use crate::stats::LatencyHistogram;
use crate::throughput::run_throughput;
use dc_batch::Variant;
use dc_batch::{BatchConnectivity, BatchEngine, BatchOp};
use dc_graph::{generators, Edge};
use dc_sync::waitstats;
use dynconn::DynamicConnectivity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Scenario parameters for the batch benchmark.
#[derive(Clone, Debug)]
pub struct BatchBenchConfig {
    /// Vertices of the hot graph the burst/churn traffic runs on.
    pub n: usize,
    /// Size of the hot edge pool the churny updates draw from.
    pub hot_edges: usize,
    /// Operations per burst (one `apply_batch` call).
    pub burst: usize,
    /// Bursts issued by each thread.
    pub bursts_per_thread: usize,
    /// Concurrent client threads (the acceptance point is 8).
    pub threads: usize,
    /// Percentage of queries inside a burst (the rest is add/remove churn).
    pub read_percent: u32,
    /// Edge count of the bulk-load graph.
    pub bulk_edges: usize,
    /// Chunk size used by the bulk-load scenario.
    pub bulk_chunk: usize,
    /// Batch sizes swept by the compaction scenario.
    pub batch_sizes: Vec<usize>,
    /// Operations per thread for the adapter-compatibility scenarios.
    pub scenario_ops_per_thread: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Repetitions; best throughput per cell is kept.
    pub repeats: usize,
}

impl BatchBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`,
    /// thread count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut config = if quick {
            BatchBenchConfig {
                n: 512,
                hot_edges: 128,
                burst: 256,
                bursts_per_thread: 4,
                threads: 8,
                read_percent: 20,
                bulk_edges: 4_000,
                bulk_chunk: 1_024,
                batch_sizes: vec![16, 64, 256, 1024],
                scenario_ops_per_thread: 2_000,
                seed: 0xBA7C4,
                repeats: 2,
            }
        } else {
            BatchBenchConfig {
                n: 2_048,
                hot_edges: 256,
                burst: 2_048,
                bursts_per_thread: 6,
                threads: 8,
                read_percent: 20,
                bulk_edges: 40_000,
                bulk_chunk: 1_024,
                batch_sizes: vec![16, 64, 256, 1024, 4096],
                scenario_ops_per_thread: 10_000,
                seed: 0xBA7C4,
                repeats: 3,
            }
        };
        if let Ok(v) = std::env::var("DC_BENCH_THREADS") {
            if let Some(t) = v
                .split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .max()
            {
                config.threads = t.max(1);
            }
        }
        config
    }

    /// Total operations of the burst scenario.
    pub fn burst_total_ops(&self) -> usize {
        self.threads * self.bursts_per_thread * self.burst
    }
}

/// One measured cell: a label plus throughput and lock-wait statistics.
#[derive(Clone, Debug)]
pub struct BatchCell {
    /// What was measured ("batch (apply_batch)", a variant name, ...).
    pub label: String,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Active time rate in percent.
    pub active_time_percent: f64,
    /// Total lock-wait time across threads, milliseconds.
    pub wait_ms: f64,
    /// Per-operation latency (batch-amortized for batched cells): median,
    /// nanoseconds.
    pub p50_nanos: u64,
    /// Per-operation latency: 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Per-operation latency: 99.9th percentile, nanoseconds.
    pub p999_nanos: u64,
}

/// One cell of the batch-size sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Batch size.
    pub batch: usize,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Applied / submitted updates (< 1.0 means annihilation won).
    pub compaction_ratio: f64,
}

/// The full batch measurement, serialized as `BENCH_batch.json`.
#[derive(Clone, Debug, Default)]
pub struct BatchBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<BatchBenchConfig>,
    /// Burst scenario: the batch engine plus every single-op variant.
    pub burst: Vec<BatchCell>,
    /// Burst batch throughput over the best single-op variant.
    pub burst_speedup_vs_best_single: f64,
    /// Applied / submitted updates of the burst batch run.
    pub burst_compaction_ratio: f64,
    /// Bulk-load scenario cells.
    pub bulk_load: Vec<BatchCell>,
    /// Bulk-load batch throughput over single-op loading.
    pub bulk_speedup: f64,
    /// Batch-size sweep over the churn stream.
    pub sweep: Vec<SweepCell>,
    /// The adapter running the existing scenarios, next to variant 9.
    pub adapter_scenarios: Vec<BatchCell>,
}

/// Measures `run` (which must execute `total_ops` operations across
/// `threads` threads and return the latency samples it took) with
/// lock-wait accounting enabled.
fn measure(total_ops: usize, threads: usize, run: impl FnOnce() -> LatencyHistogram) -> BatchCell {
    waitstats::reset();
    waitstats::set_enabled(true);
    let start = Instant::now();
    let latency = run();
    let elapsed = start.elapsed();
    waitstats::set_enabled(false);
    let total_thread_nanos = (elapsed.as_nanos() as u64).saturating_mul(threads as u64);
    BatchCell {
        label: String::new(),
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        active_time_percent: waitstats::active_time_rate_percent(total_thread_nanos),
        wait_ms: waitstats::total_wait_nanos() as f64 / 1e6,
        p50_nanos: latency.p50(),
        p99_nanos: latency.p99(),
        p999_nanos: latency.p999(),
    }
}

/// Records one timed batch of `n` operations into `hist`, amortized: the
/// per-op quotient carries the batch's full sample weight.
fn record_batch(hist: &mut LatencyHistogram, elapsed_nanos: u64, n: usize) {
    if n > 0 {
        hist.record_n(elapsed_nanos / n as u64, n as u64);
    }
}

/// Generates the hot edge pool: `hot_edges` distinct edges over `n`
/// vertices.
fn hot_pool(config: &BatchBenchConfig, rng: &mut StdRng) -> Vec<Edge> {
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(config.hot_edges);
    while pool.len() < config.hot_edges {
        let u = rng.gen_range(0..config.n as u32);
        let v = rng.gen_range(0..config.n as u32);
        if u != v && seen.insert(Edge::new(u, v)) {
            pool.push(Edge::new(u, v));
        }
    }
    pool
}

/// Generates the per-thread burst streams. Each burst has the shape
/// batched clients naturally produce — a *mutation block* (churny
/// add/remove traffic over the hot pool) followed by a *read block*
/// verifying the result — which is exactly the shape the single-op API
/// cannot exploit: one `apply_batch` call compacts the whole mutation block
/// into its net intents and answers the read block from one consistent
/// state, while the single-op variants pay one synchronization round-trip
/// per operation of the very same stream.
fn burst_streams(config: &BatchBenchConfig) -> Vec<Vec<Vec<BatchOp>>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pool = hot_pool(config, &mut rng);
    let reads = (config.burst * config.read_percent as usize) / 100;
    let updates = config.burst - reads;
    (0..config.threads)
        .map(|t| {
            let mut trng = StdRng::seed_from_u64(config.seed ^ ((t as u64 + 1) * 0x9E37));
            (0..config.bursts_per_thread)
                .map(|_| {
                    let mut burst = Vec::with_capacity(config.burst);
                    for _ in 0..updates {
                        let e = pool[trng.gen_range(0..pool.len())];
                        if trng.gen_range(0..2) == 0 {
                            burst.push(BatchOp::Add(e.u(), e.v()));
                        } else {
                            burst.push(BatchOp::Remove(e.u(), e.v()));
                        }
                    }
                    for _ in 0..reads {
                        let u = trng.gen_range(0..config.n as u32);
                        let v = trng.gen_range(0..config.n as u32);
                        burst.push(BatchOp::Query(u, v));
                    }
                    burst
                })
                .collect()
        })
        .collect()
}

/// Runs each thread's bursts concurrently through `issue` (one call per
/// burst), with a start barrier like the throughput harness. Each burst is
/// timed and recorded amortized, so the merged histogram weighs every
/// operation once.
fn run_bursts(
    streams: &[Vec<Vec<BatchOp>>],
    issue: impl Fn(&[BatchOp]) + Sync,
) -> LatencyHistogram {
    let start_flag = AtomicBool::new(false);
    let mut latency = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|bursts| {
                let start_flag = &start_flag;
                let issue = &issue;
                scope.spawn(move || {
                    while !start_flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut hist = LatencyHistogram::new();
                    for burst in bursts {
                        let start = Instant::now();
                        issue(burst);
                        record_batch(&mut hist, start.elapsed().as_nanos() as u64, burst.len());
                    }
                    hist
                })
            })
            .collect();
        start_flag.store(true, Ordering::Release);
        for handle in handles {
            latency.merge(&handle.join().expect("burst worker panicked"));
        }
    });
    latency
}

fn single_op(dc: &dyn DynamicConnectivity, op: BatchOp) {
    match op {
        BatchOp::Add(u, v) => dc.add_edge(u, v),
        BatchOp::Remove(u, v) => dc.remove_edge(u, v),
        BatchOp::Query(u, v) => {
            std::hint::black_box(dc.connected(u, v));
        }
    }
}

/// Inserts or replaces the cell for `label`, keeping the best throughput.
/// Returns `true` if `cell` became the kept one (so by-products of the same
/// run — e.g. its compaction ratio — can be kept alongside).
fn keep_best(cells: &mut Vec<BatchCell>, mut cell: BatchCell, label: &str) -> bool {
    cell.label = label.to_string();
    match cells.iter_mut().find(|c| c.label == label) {
        Some(best) => {
            if cell.ops_per_sec > best.ops_per_sec {
                *best = cell;
                true
            } else {
                false
            }
        }
        None => {
            cells.push(cell);
            true
        }
    }
}

/// Runs every scenario `config.repeats` times, keeping the best throughput
/// per cell.
pub fn run_batch_bench(config: &BatchBenchConfig) -> BatchBaseline {
    let mut baseline = BatchBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        ..Default::default()
    };
    let streams = burst_streams(config);
    let total_ops = config.burst_total_ops();

    for _ in 0..config.repeats.max(1) {
        // --- burst: the batch engine ---------------------------------------
        let engine = BatchEngine::new(config.n);
        let cell = measure(total_ops, config.threads, || {
            run_bursts(&streams, |burst| {
                std::hint::black_box(engine.apply_batch(burst));
            })
        });
        // The compaction ratio must come from the same run as the published
        // throughput (annihilation depends on the interleaving, so repeats
        // differ).
        if keep_best(&mut baseline.burst, cell, "batch (apply_batch)") {
            baseline.burst_compaction_ratio = engine.stats().compaction_ratio();
        }

        // --- burst: every single-op variant (incl. the adapter as 14) ------
        for variant in Variant::all_extended() {
            let dc = variant.build(config.n);
            let cell = measure(total_ops, config.threads, || {
                run_bursts(&streams, |burst| {
                    for &op in burst {
                        single_op(dc.as_ref(), op);
                    }
                })
            });
            keep_best(&mut baseline.burst, cell, variant.name());
        }

        // --- bulk load ------------------------------------------------------
        let bulk_graph = generators::erdos_renyi_nm(
            (config.bulk_edges / 2).max(16),
            config.bulk_edges,
            config.seed ^ 0xB0,
        );
        let engine = BatchEngine::new(bulk_graph.num_vertices());
        let cell = measure(bulk_graph.num_edges(), 1, || {
            let mut hist = LatencyHistogram::new();
            let mut chunk = Vec::with_capacity(config.bulk_chunk);
            for e in bulk_graph.edges() {
                chunk.push(BatchOp::Add(e.u(), e.v()));
                if chunk.len() == config.bulk_chunk {
                    let start = Instant::now();
                    engine.apply_batch(&chunk);
                    record_batch(&mut hist, start.elapsed().as_nanos() as u64, chunk.len());
                    chunk.clear();
                }
            }
            let start = Instant::now();
            engine.apply_batch(&chunk);
            record_batch(&mut hist, start.elapsed().as_nanos() as u64, chunk.len());
            hist
        });
        keep_best(&mut baseline.bulk_load, cell, "batch bulk-load");
        let dc = Variant::OurAlgorithm.build(bulk_graph.num_vertices());
        let cell = measure(bulk_graph.num_edges(), 1, || {
            let mut hist = LatencyHistogram::new();
            for (i, e) in bulk_graph.edges().iter().enumerate() {
                let start = (i % 16 == 0).then(Instant::now);
                dc.add_edge(e.u(), e.v());
                if let Some(start) = start {
                    hist.record(start.elapsed().as_nanos() as u64);
                }
            }
            hist
        });
        keep_best(&mut baseline.bulk_load, cell, "single-op load (variant 9)");

        // --- batch-size sweep (churn-heavy, single client) ------------------
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
        let pool = hot_pool(config, &mut rng);
        let churn_ops: Vec<BatchOp> = (0..config.burst * config.bursts_per_thread * 2)
            .map(|_| {
                let e = pool[rng.gen_range(0..pool.len())];
                if rng.gen_range(0..2) == 0 {
                    BatchOp::Add(e.u(), e.v())
                } else {
                    BatchOp::Remove(e.u(), e.v())
                }
            })
            .collect();
        for &batch in &config.batch_sizes {
            let engine = BatchEngine::new(config.n);
            let cell = measure(churn_ops.len(), 1, || {
                let mut hist = LatencyHistogram::new();
                for chunk in churn_ops.chunks(batch) {
                    let start = Instant::now();
                    engine.apply_batch(chunk);
                    record_batch(&mut hist, start.elapsed().as_nanos() as u64, chunk.len());
                }
                hist
            });
            let ratio = engine.stats().compaction_ratio();
            match baseline.sweep.iter_mut().find(|c| c.batch == batch) {
                Some(best) => {
                    if cell.ops_per_sec > best.ops_per_sec {
                        best.ops_per_sec = cell.ops_per_sec;
                        best.compaction_ratio = ratio;
                    }
                }
                None => baseline.sweep.push(SweepCell {
                    batch,
                    ops_per_sec: cell.ops_per_sec,
                    compaction_ratio: ratio,
                }),
            }
        }

        // --- the adapter on the existing scenarios --------------------------
        let graph = generators::erdos_renyi_nm(config.n, config.n * 3, config.seed ^ 0xADA);
        for scenario in [
            Scenario::RandomSubset { read_percent: 80 },
            Scenario::Incremental,
            Scenario::Decremental,
        ] {
            let workload = Workload::generate(
                &graph,
                scenario,
                config.threads,
                config.scenario_ops_per_thread,
                config.seed,
            );
            for (label_prefix, variant) in [
                ("batch adapter", Variant::BatchEngine),
                ("variant 9", Variant::OurAlgorithm),
            ] {
                let dc = variant.build(graph.num_vertices());
                let result = run_throughput(dc.as_ref(), &workload);
                let cell = BatchCell {
                    label: String::new(),
                    ops_per_sec: result.ops_per_ms * 1e3,
                    active_time_percent: result.active_time_percent,
                    wait_ms: result.wait_nanos as f64 / 1e6,
                    p50_nanos: result.latency.p50(),
                    p99_nanos: result.latency.p99(),
                    p999_nanos: result.latency.p999(),
                };
                keep_best(
                    &mut baseline.adapter_scenarios,
                    cell,
                    &format!("{} / {}", scenario.name(), label_prefix),
                );
            }
        }
    }

    let best_single = baseline
        .burst
        .iter()
        .filter(|c| c.label != "batch (apply_batch)")
        .map(|c| c.ops_per_sec)
        .fold(0.0f64, f64::max);
    let batch = baseline
        .burst
        .iter()
        .find(|c| c.label == "batch (apply_batch)")
        .map(|c| c.ops_per_sec)
        .unwrap_or(0.0);
    baseline.burst_speedup_vs_best_single = batch / best_single.max(1e-9);
    let bulk_single = baseline
        .bulk_load
        .iter()
        .find(|c| c.label == "single-op load (variant 9)")
        .map(|c| c.ops_per_sec)
        .unwrap_or(0.0);
    let bulk_batch = baseline
        .bulk_load
        .iter()
        .find(|c| c.label == "batch bulk-load")
        .map(|c| c.ops_per_sec)
        .unwrap_or(0.0);
    baseline.bulk_speedup = bulk_batch / bulk_single.max(1e-9);
    baseline
}

fn push_cells(out: &mut String, cells: &[BatchCell]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {}: {{ \"ops_per_sec\": {}, \"active_time_percent\": {}, \"wait_ms\": {}, \
             \"p50_nanos\": {}, \"p99_nanos\": {}, \"p999_nanos\": {} }}",
            json_string(&cell.label),
            json_number(cell.ops_per_sec),
            json_number(cell.active_time_percent),
            json_number(cell.wait_ms),
            cell.p50_nanos,
            cell.p99_nanos,
            cell.p999_nanos
        ));
    }
}

impl BatchBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/batch/v2\",\n");
        out.push_str(&format!("  \"git_rev\": {},\n", json_string(&self.git_rev)));
        if let Some(config) = &self.config {
            out.push_str("  \"scenario\": {\n");
            out.push_str(&format!("    \"vertices\": {},\n", config.n));
            out.push_str(&format!("    \"hot_edges\": {},\n", config.hot_edges));
            out.push_str(&format!("    \"burst\": {},\n", config.burst));
            out.push_str(&format!(
                "    \"bursts_per_thread\": {},\n",
                config.bursts_per_thread
            ));
            out.push_str(&format!("    \"threads\": {},\n", config.threads));
            out.push_str(&format!("    \"read_percent\": {},\n", config.read_percent));
            out.push_str(&format!("    \"bulk_edges\": {},\n", config.bulk_edges));
            out.push_str(&format!("    \"repeats_best_of\": {}\n", config.repeats));
            out.push_str("  },\n");
        }
        out.push_str("  \"burst\": {");
        push_cells(&mut out, &self.burst);
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"burst_speedup_vs_best_single\": {},\n",
            json_number(self.burst_speedup_vs_best_single)
        ));
        out.push_str(&format!(
            "  \"burst_compaction_ratio\": {},\n",
            json_number(self.burst_compaction_ratio)
        ));
        out.push_str("  \"bulk_load\": {");
        push_cells(&mut out, &self.bulk_load);
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"bulk_speedup\": {},\n",
            json_number(self.bulk_speedup)
        ));
        out.push_str("  \"batch_size_sweep\": [");
        for (i, cell) in self.sweep.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"batch\": {}, \"ops_per_sec\": {}, \"compaction_ratio\": {} }}",
                cell.batch,
                json_number(cell.ops_per_sec),
                json_number(cell.compaction_ratio)
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"adapter_scenarios\": {");
        push_cells(&mut out, &self.adapter_scenarios);
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let (threads, burst) = self
            .config
            .as_ref()
            .map(|c| (c.threads, c.burst))
            .unwrap_or((0, 0));
        out.push_str(&format!(
            "== Batch engine (burst = {burst} ops, {threads} threads, rev {}) ==\n",
            self.git_rev
        ));
        out.push_str(&format!(
            "{:<44}{:>14}{:>12}{:>12}\n",
            "burst scenario", "ops/s", "active %", "wait ms"
        ));
        let mut sorted: Vec<&BatchCell> = self.burst.iter().collect();
        sorted.sort_by(|a, b| b.ops_per_sec.total_cmp(&a.ops_per_sec));
        for cell in sorted {
            out.push_str(&format!(
                "{:<44}{:>14.0}{:>12.1}{:>12.2}\n",
                cell.label, cell.ops_per_sec, cell.active_time_percent, cell.wait_ms
            ));
        }
        out.push_str(&format!(
            "burst speedup vs best single-op: {:.2}x   compaction ratio: {:.3}\n\n",
            self.burst_speedup_vs_best_single, self.burst_compaction_ratio
        ));
        for cell in &self.bulk_load {
            out.push_str(&format!("{:<44}{:>14.0}\n", cell.label, cell.ops_per_sec));
        }
        out.push_str(&format!("bulk-load speedup: {:.2}x\n\n", self.bulk_speedup));
        out.push_str("batch-size sweep (churn stream):\n");
        for cell in &self.sweep {
            out.push_str(&format!(
                "  B={:<6} {:>12.0} ops/s   compaction {:.3}\n",
                cell.batch, cell.ops_per_sec, cell.compaction_ratio
            ));
        }
        out.push('\n');
        for cell in &self.adapter_scenarios {
            out.push_str(&format!(
                "{:<44}{:>14.0}{:>12.1}{:>12.2}\n",
                cell.label, cell.ops_per_sec, cell.active_time_percent, cell.wait_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bench_runs_on_a_tiny_instance() {
        let config = BatchBenchConfig {
            n: 64,
            hot_edges: 32,
            burst: 32,
            bursts_per_thread: 2,
            threads: 2,
            read_percent: 25,
            bulk_edges: 200,
            bulk_chunk: 64,
            batch_sizes: vec![8, 32],
            scenario_ops_per_thread: 200,
            seed: 7,
            repeats: 1,
        };
        let baseline = run_batch_bench(&config);
        // One batch cell plus the 13 paper variants plus the adapter (14).
        assert_eq!(baseline.burst.len(), 15);
        assert!(baseline.burst.iter().all(|c| c.ops_per_sec > 0.0));
        for cell in baseline.burst.iter().chain(&baseline.bulk_load) {
            assert!(cell.p50_nanos > 0, "{}", cell.label);
            assert!(cell.p50_nanos <= cell.p99_nanos && cell.p99_nanos <= cell.p999_nanos);
        }
        assert!(
            baseline.burst_compaction_ratio > 0.0 && baseline.burst_compaction_ratio < 1.0,
            "churn-heavy bursts must annihilate some updates (ratio {})",
            baseline.burst_compaction_ratio
        );
        assert_eq!(baseline.sweep.len(), 2);
        assert!(baseline
            .sweep
            .iter()
            .all(|c| c.compaction_ratio < 1.0 && c.ops_per_sec > 0.0));
        assert_eq!(baseline.adapter_scenarios.len(), 6);
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/batch/v2"));
        assert!(json.contains("p999_nanos"));
        assert!(json.contains("burst_speedup_vs_best_single"));
        assert!(json.contains("batch_size_sweep"));
        assert!(baseline.render_text().contains("compaction"));
    }
}
