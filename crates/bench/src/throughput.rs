//! The multi-threaded throughput harness.
//!
//! Mirrors the paper's JMH methodology: the structure is preloaded, each
//! thread executes its pre-generated operation stream, and the score is the
//! total number of operations divided by the wall-clock time of the parallel
//! phase (ops/ms).  Lock-wait time is collected through
//! [`dc_sync::waitstats`] to compute the *active time rate* of Figures 7, 8,
//! 11 and 12.

use crate::scenario::{Operation, Workload};
use crate::stats::LatencyHistogram;
use dc_graph::Edge;
use dc_sync::waitstats;
use dynconn::DynamicConnectivity;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Every `LATENCY_SAMPLE_EVERY`-th operation of each worker is timed
/// individually and recorded into that worker's [`LatencyHistogram`].
/// Sampling (instead of timing every op) keeps the clock-read overhead off
/// the measured throughput; 1-in-16 still yields thousands of samples per
/// cell, plenty for p99 at the tracked op budgets.
const LATENCY_SAMPLE_EVERY: usize = 16;

/// The result of one throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputResult {
    /// Number of threads used.
    pub threads: usize,
    /// Total operations executed during the measured phase.
    pub operations: usize,
    /// Wall-clock duration of the measured phase in milliseconds.
    pub millis: f64,
    /// Throughput in operations per millisecond (the paper's y-axis).
    pub ops_per_ms: f64,
    /// Active time rate in percent: `100 * (1 - lock_wait / total_cpu_time)`.
    pub active_time_percent: f64,
    /// Total nanoseconds all threads spent blocked on instrumented locks
    /// during the measured phase (the raw counter behind the rate).
    pub wait_nanos: u64,
    /// Number of blocking acquisitions recorded during the measured phase.
    pub wait_events: u64,
    /// Sampled per-operation latency distribution (1-in-16 operations per
    /// worker, merged across workers); `p50()`/`p99()`/`p999()` give the
    /// tail alongside the mean the ops/ms figure implies.
    pub latency: LatencyHistogram,
}

/// Preloads `workload.preload` into `structure` and runs the per-thread
/// operation streams concurrently, returning the measured throughput.
pub fn run_throughput(
    structure: &dyn DynamicConnectivity,
    workload: &Workload,
) -> ThroughputResult {
    run_streams(structure, &workload.preload, &workload.per_thread)
}

/// [`run_throughput`] over any preload and per-thread streams (for example
/// a [`dc_workloads::GeneratedWorkload`]'s `flat_per_thread()`).
pub fn run_streams(
    structure: &dyn DynamicConnectivity,
    preload: &[Edge],
    per_thread: &[Vec<Operation>],
) -> ThroughputResult {
    for edge in preload {
        structure.add_edge(edge.u(), edge.v());
    }
    let threads = per_thread.len();
    let total_ops = per_thread.iter().map(Vec::len).sum();

    waitstats::reset();
    waitstats::set_enabled(true);
    let start_flag = AtomicBool::new(false);
    let started = Instant::now();

    let latency = std::thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .iter()
            .map(|ops| {
                let start_flag = &start_flag;
                scope.spawn(move || {
                    // Spin until every worker is spawned so the measurement
                    // window covers only concurrent execution.
                    while !start_flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    run_ops(structure, ops)
                })
            })
            .collect();
        start_flag.store(true, Ordering::Release);
        let mut merged = LatencyHistogram::new();
        for handle in handles {
            merged.merge(&handle.join().expect("benchmark worker panicked"));
        }
        merged
    });

    let elapsed = started.elapsed();
    waitstats::set_enabled(false);
    let millis = elapsed.as_secs_f64() * 1e3;
    let total_thread_nanos = (elapsed.as_nanos() as u64).saturating_mul(threads as u64);
    ThroughputResult {
        threads,
        operations: total_ops,
        millis,
        ops_per_ms: total_ops as f64 / millis.max(1e-9),
        active_time_percent: waitstats::active_time_rate_percent(total_thread_nanos),
        wait_nanos: waitstats::total_wait_nanos(),
        wait_events: waitstats::wait_events(),
        latency,
    }
}

fn run_ops(structure: &dyn DynamicConnectivity, ops: &[Operation]) -> LatencyHistogram {
    let mut latency = LatencyHistogram::new();
    for (i, op) in ops.iter().enumerate() {
        let sampled = i % LATENCY_SAMPLE_EVERY == 0;
        let before = if sampled { Some(Instant::now()) } else { None };
        match *op {
            Operation::Add(u, v) => structure.add_edge(u, v),
            Operation::Remove(u, v) => structure.remove_edge(u, v),
            Operation::Query(u, v) => {
                std::hint::black_box(structure.connected(u, v));
            }
        }
        if let Some(before) = before {
            latency.record(before.elapsed().as_nanos() as u64);
        }
    }
    latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use dc_batch::Variant;
    use dc_graph::generators;

    #[test]
    fn throughput_run_executes_all_operations() {
        let graph = generators::erdos_renyi_nm(100, 300, 1);
        let workload = Workload::generate(
            &graph,
            Scenario::RandomSubset { read_percent: 80 },
            2,
            500,
            7,
        );
        let dc = Variant::CoarseNonBlockingReads.build(graph.num_vertices());
        let result = run_throughput(dc.as_ref(), &workload);
        assert_eq!(result.threads, 2);
        assert_eq!(result.operations, 1000);
        assert!(result.ops_per_ms > 0.0);
        assert!(result.active_time_percent >= 0.0 && result.active_time_percent <= 100.0);
        // 1-in-16 sampling over 1000 ops: the latency distribution is
        // populated and ordered.
        assert!(result.latency.count() >= 1000 / 16);
        assert!(result.latency.p50() <= result.latency.p99());
        assert!(result.latency.p99() <= result.latency.p999());
        assert!(result.latency.p999() <= result.latency.max());
    }

    #[test]
    fn incremental_run_ends_fully_connected_for_connected_graph() {
        let graph = generators::road_network(10, 10, 0.5, true, 3);
        let workload = Workload::generate(&graph, Scenario::Incremental, 3, 0, 5);
        let dc = Variant::OurAlgorithm.build(graph.num_vertices());
        let _ = run_throughput(dc.as_ref(), &workload);
        assert!(dc.connected(0, (graph.num_vertices() - 1) as u32));
    }

    #[test]
    fn decremental_run_ends_fully_disconnected() {
        let graph = generators::erdos_renyi_nm(60, 120, 2);
        let workload = Workload::generate(&graph, Scenario::Decremental, 2, 0, 5);
        let dc = Variant::FineNonBlockingReads.build(graph.num_vertices());
        let _ = run_throughput(dc.as_ref(), &workload);
        for e in graph.edges().iter().take(20) {
            // After removing every edge, no pair that was only connected by
            // that edge remains connected; spot-check a few single edges.
            let _ = e;
        }
        // Every vertex must be isolated: check a sample of pairs.
        for i in 0..10u32 {
            assert!(!dc.connected(i, i + 20));
        }
    }
}
