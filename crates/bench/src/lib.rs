//! Benchmark harness for the SPAA '21 evaluation.
//!
//! The paper's evaluation (Section 5) measures operation throughput of the
//! thirteen algorithm variants under three workloads over eight small and
//! four large graphs, plus the "active time rate" (time not spent waiting for
//! locks) and workload statistics.  This crate reproduces it:
//!
//! * the paper's three workload generators — random-subset, incremental and
//!   decremental scenarios ([`scenario`], a thin wrapper over the
//!   `dc_workloads` presets);
//! * a multi-threaded throughput harness with warm-up, lock-wait accounting
//!   and ops/ms reporting ([`throughput`]);
//! * the statistics collector behind Tables 3 and 4 ([`stats`]);
//! * one binary per figure/table of the paper (see `src/bin/`), all driven by
//!   the same [`config::BenchConfig`] so they scale down gracefully on small
//!   machines, and a reporting layer that renders their tables and JSON
//!   dumps ([`report`]).
//!
//! The repository's end-to-end and per-layer benchmark is `perfbench/`
//! (see `BENCHMARK.json`). The `summary` binary adds the tiers whose
//! questions perfbench does not ask, selected with `DC_BENCH=<name>,...`
//! and each written to a `BENCH_<name>.json` artifact documented in
//! `docs/bench-schema.md`:
//!
//! * `batch` — bursty `apply_batch` traffic against every single-op
//!   variant, bulk load, and the batch-size/compaction sweep
//!   ([`batchbench`]);
//! * `ett` — Euler-tour-tree link/cut throughput and arena occupancy in
//!   isolation ([`ettbench`]);
//! * `latency` — per-query latency of the interleaved bulk-read engine on
//!   streamed huge graphs, with the one gate left in the crate
//!   ([`latencybench`]);
//! * `obs` — the cost of enabling `dc_obs` metrics and tracing
//!   ([`obsbench`]).

pub mod batchbench;
pub mod config;
pub mod ettbench;
pub mod latencybench;
pub mod obsbench;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod throughput;

pub use batchbench::{run_batch_bench, BatchBaseline, BatchBenchConfig};
pub use config::BenchConfig;
pub use ettbench::{run_ett_bench, EttBaseline, EttBenchConfig};
pub use latencybench::{run_latency_bench, LatencyBaseline, LatencyBenchConfig};
pub use obsbench::{run_obs_bench, ObsBaseline, ObsBenchConfig};
pub use report::FigureData;
pub use runner::{run_figure, Measure};
pub use scenario::{Operation, Scenario, Workload};
pub use throughput::{run_throughput, ThroughputResult};
