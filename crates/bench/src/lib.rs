//! Benchmark harness for the SPAA '21 evaluation.
//!
//! The paper's evaluation (Section 5) measures operation throughput of the
//! thirteen algorithm variants under three workloads over eight small and
//! four large graphs, plus the "active time rate" (time not spent waiting for
//! locks) and workload statistics.  This crate provides:
//!
//! * the paper's three workload generators — random-subset, incremental and
//!   decremental scenarios ([`scenario`], a thin wrapper over the
//!   `dc_workloads` presets);
//! * the workload-subsystem benchmark — power-law + Zipf contention, the
//!   phased lifecycle, the temporal sliding window and trace replay across
//!   all fourteen variants, emitted as `BENCH_workloads.json`
//!   ([`workloadbench`]);
//! * the read-path tier — read-storm, zipf-read and mixed-churn scenarios
//!   with the root-hint cache on and off across all fourteen variants,
//!   emitted as `BENCH_reads.json` ([`readbench`]);
//! * the durability tier — WAL write-path overhead under each fsync policy
//!   and recovery time (checkpoint + tail replay vs full-trace replay)
//!   across a checkpoint-interval sweep, emitted as
//!   `BENCH_durability.json` ([`durabilitybench`]);
//! * the huge-graph latency tier — per-query latency distributions
//!   (p50/p90/p99/p999) of the interleaved bulk-read engine across walk
//!   widths on streamed 10M+-vertex graphs, emitted as
//!   `BENCH_latency.json` ([`latencybench`]);
//! * the observability tier — the read-storm workload measured with
//!   `dc_obs` disabled, metrics-only and metrics+tracing against an
//!   untouched baseline, gating the disabled overhead, emitted as
//!   `BENCH_obs.json` ([`obsbench`]);
//! * the fault-harness tier — the batch-engine adapter workload on fresh
//!   engines with no `dc_faults` schedule, an attached empty schedule and
//!   no schedule again (gating the disabled overhead), plus the
//!   recovery-from-poison latency of `DurableConnectivity::rebuild`,
//!   emitted as `BENCH_faults.json` ([`faultsbench`]);
//! * a multi-threaded throughput harness with warm-up, lock-wait accounting
//!   and ops/ms reporting ([`throughput`]);
//! * the statistics collector behind Tables 3 and 4 ([`stats`]);
//! * a small reporting layer that renders the per-figure result tables and
//!   JSON dumps ([`report`]);
//! * one binary per figure/table of the paper (see `src/bin/`), all driven by
//!   the same [`config::BenchConfig`] so they scale down gracefully on small
//!   machines.
//!
//! The machine-readable artifacts (`BENCH_adjacency.json`, `BENCH_ett.json`,
//! `BENCH_batch.json`, `BENCH_workloads.json`, `BENCH_reads.json`,
//! `BENCH_durability.json`, `BENCH_latency.json`, `BENCH_obs.json`,
//! `BENCH_faults.json`) are documented in
//! `docs/bench-schema.md`.

pub mod batchbench;
pub mod config;
pub mod durabilitybench;
pub mod ettbench;
pub mod faultsbench;
pub mod latencybench;
pub mod obsbench;
pub mod readbench;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod throughput;
pub mod workloadbench;

pub use batchbench::{run_batch_bench, BatchBaseline, BatchBenchConfig};
pub use config::BenchConfig;
pub use durabilitybench::{run_durability_bench, DurabilityBaseline, DurabilityBenchConfig};
pub use ettbench::{run_ett_bench, EttBaseline, EttBenchConfig};
pub use faultsbench::{run_faults_bench, FaultsBaseline, FaultsBenchConfig};
pub use latencybench::{run_latency_bench, LatencyBaseline, LatencyBenchConfig};
pub use obsbench::{run_obs_bench, ObsBaseline, ObsBenchConfig};
pub use readbench::{run_read_bench, ReadBaseline, ReadBenchConfig};
pub use report::FigureData;
pub use runner::{run_figure, Measure};
pub use scenario::{Operation, Scenario, Workload};
pub use throughput::{run_throughput, ThroughputResult};
pub use workloadbench::{run_workload_bench, WorkloadBaseline, WorkloadBenchConfig};
