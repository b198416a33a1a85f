//! The workload-subsystem benchmark, emitted as `BENCH_workloads.json`.
//!
//! Where the figure binaries reproduce the paper's three §5.1 scenarios,
//! this module measures the scenarios the `dc_workloads` subsystem opens
//! up, across **every** variant (the paper's thirteen plus the `dc_batch`
//! engine as number 14):
//!
//! * **power-law + Zipf** — churny, read-mixed traffic whose hot-edge
//!   distribution is Zipf-skewed, over a preferential-attachment graph:
//!   contention concentrates on hub edges the way social-graph traffic
//!   does.
//! * **phased lifecycle** — `load → churn-burst → read-storm → teardown`
//!   over a ring of cliques, with *per-phase* throughput and lock-wait
//!   statistics (a structure that wins the read-storm can still lose the
//!   teardown, where every removal is a critical bridge candidate).
//! * **sliding window** — a temporal stream over a grid universe: edge `i`
//!   in, edge `i - window` out, queries over recent endpoints; the live
//!   set stays small and recency-biased.
//! * **trace replay** — the power-law workload frozen into a
//!   `dc_workloads::Trace` and replayed from bytes; the cell proves the
//!   record/replay path costs nothing and the baseline double-decodes the
//!   trace to assert byte-for-byte determinism (`replay_deterministic`).
//!
//! Every cell carries ops/s, active-time rate, lock-wait totals from
//! [`dc_sync::waitstats`] and sampled per-operation latency percentiles
//! (p50/p99/p999, 1-in-16 sampled), keyed by phase name.

use crate::report::{json_number, json_string};
use crate::stats::LatencyHistogram;
use dc_batch::Variant;
use dc_sync::waitstats;
use dc_workloads::{presets, GeneratedWorkload, Op, Topology, Trace};
use dynconn::DynamicConnectivity;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Scenario parameters for the workload benchmark.
#[derive(Clone, Debug)]
pub struct WorkloadBenchConfig {
    /// Vertex budget for the generated topologies.
    pub n: usize,
    /// Per-thread operation budget per phase.
    pub ops_per_thread: usize,
    /// Concurrent threads.
    pub threads: usize,
    /// Live-window size of the sliding-window scenario.
    pub window: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Repetitions; best *total* throughput per (scenario, variant) is kept.
    pub repeats: usize,
}

impl WorkloadBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`, thread
    /// count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut config = if quick {
            WorkloadBenchConfig {
                n: 512,
                ops_per_thread: 1_000,
                threads: 4,
                window: 128,
                seed: 0x50AD5,
                repeats: 1,
            }
        } else {
            WorkloadBenchConfig {
                n: 4_096,
                ops_per_thread: 10_000,
                threads: 8,
                window: 1_024,
                seed: 0x50AD5,
                repeats: 2,
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
}

/// One measured phase of one variant under one scenario.
#[derive(Clone, Debug)]
pub struct PhaseCell {
    /// Phase name (from the workload spec).
    pub phase: String,
    /// Operations executed in the phase (all threads).
    pub operations: usize,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Active time rate in percent.
    pub active_time_percent: f64,
    /// Total lock-wait time across threads, milliseconds.
    pub wait_ms: f64,
    /// Sampled per-operation latency: median, nanoseconds.
    pub p50_nanos: u64,
    /// Sampled per-operation latency: 99th percentile, nanoseconds.
    pub p99_nanos: u64,
    /// Sampled per-operation latency: 99.9th percentile, nanoseconds.
    pub p999_nanos: u64,
}

/// One variant's measurement under one scenario: per-phase cells plus the
/// whole-workload throughput.
#[derive(Clone, Debug)]
pub struct VariantRun {
    /// The variant's display name.
    pub variant: String,
    /// The variant's paper number (1–14).
    pub number: u8,
    /// Whole-workload operations per second (phases summed).
    pub total_ops_per_sec: f64,
    /// The per-phase measurements, in phase order.
    pub phases: Vec<PhaseCell>,
}

/// One scenario: the graph it ran on and all variant runs.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario key used in JSON ("powerlaw-zipf", ...).
    pub name: String,
    /// Topology description.
    pub topology: String,
    /// Vertices of the universe.
    pub vertices: usize,
    /// Edges of the universe.
    pub edges: usize,
    /// Total operations per variant run.
    pub total_operations: usize,
    /// All variant runs.
    pub runs: Vec<VariantRun>,
}

/// The full workload measurement, serialized as `BENCH_workloads.json`.
#[derive(Clone, Debug, Default)]
pub struct WorkloadBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<WorkloadBenchConfig>,
    /// All scenarios.
    pub scenarios: Vec<ScenarioResult>,
    /// Size of the recorded trace in bytes (trace-replay scenario).
    pub trace_bytes: usize,
    /// Whether decoding the recorded trace twice yielded identical
    /// operation sequences (asserted, so always `true` in emitted files).
    pub replay_deterministic: bool,
}

/// One operation in this many is individually timed for the percentile
/// columns; the rest run untimed so the `Instant` calls stay off the
/// throughput measurement.
const LATENCY_SAMPLE_EVERY: usize = 16;

fn run_ops(structure: &dyn DynamicConnectivity, ops: &[Op]) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    for (i, op) in ops.iter().enumerate() {
        let start = (i % LATENCY_SAMPLE_EVERY == 0).then(Instant::now);
        match *op {
            Op::Add(u, v) => structure.add_edge(u, v),
            Op::Remove(u, v) => structure.remove_edge(u, v),
            Op::Query(u, v) => {
                std::hint::black_box(structure.connected(u, v));
            }
        }
        if let Some(start) = start {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
    hist
}

/// Preloads the workload and runs its phases back-to-back with a barrier
/// between them, measuring each phase separately.
fn run_phased(structure: &dyn DynamicConnectivity, workload: &GeneratedWorkload) -> Vec<PhaseCell> {
    for edge in &workload.preload {
        structure.add_edge(edge.u(), edge.v());
    }
    let threads = workload.threads();
    workload
        .phases
        .iter()
        .map(|phase| {
            waitstats::reset();
            waitstats::set_enabled(true);
            let start_flag = AtomicBool::new(false);
            let started = Instant::now();
            let mut latency = LatencyHistogram::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = phase
                    .per_thread
                    .iter()
                    .map(|ops| {
                        let start_flag = &start_flag;
                        scope.spawn(move || {
                            while !start_flag.load(Ordering::Acquire) {
                                std::hint::spin_loop();
                            }
                            run_ops(structure, ops)
                        })
                    })
                    .collect();
                start_flag.store(true, Ordering::Release);
                for handle in handles {
                    latency.merge(&handle.join().expect("workload worker panicked"));
                }
            });
            let elapsed = started.elapsed();
            waitstats::set_enabled(false);
            let operations = phase.total_operations();
            let total_thread_nanos = (elapsed.as_nanos() as u64).saturating_mul(threads as u64);
            PhaseCell {
                phase: phase.name.clone(),
                operations,
                ops_per_sec: operations as f64 / elapsed.as_secs_f64().max(1e-9),
                active_time_percent: waitstats::active_time_rate_percent(total_thread_nanos),
                wait_ms: waitstats::total_wait_nanos() as f64 / 1e6,
                p50_nanos: latency.p50(),
                p99_nanos: latency.p99(),
                p999_nanos: latency.p999(),
            }
        })
        .collect()
}

/// Whole-workload ops/s from per-phase cells (total ops over summed time).
fn total_ops_per_sec(phases: &[PhaseCell]) -> f64 {
    let ops: usize = phases.iter().map(|p| p.operations).sum();
    let secs: f64 = phases
        .iter()
        .map(|p| p.operations as f64 / p.ops_per_sec.max(1e-9))
        .sum();
    ops as f64 / secs.max(1e-9)
}

/// Runs `workload` over every variant (`repeats` times, best total kept).
fn run_scenario(
    name: &str,
    topology: &Topology,
    graph: &dc_graph::Graph,
    workload: &GeneratedWorkload,
    variants: &[Variant],
    repeats: usize,
) -> ScenarioResult {
    let mut runs: Vec<VariantRun> = Vec::new();
    for _ in 0..repeats.max(1) {
        for &variant in variants {
            let structure = variant.build(graph.num_vertices());
            let phases = run_phased(structure.as_ref(), workload);
            let total = total_ops_per_sec(&phases);
            match runs.iter_mut().find(|r| r.variant == variant.name()) {
                Some(run) if run.total_ops_per_sec >= total => {}
                Some(run) => {
                    run.total_ops_per_sec = total;
                    run.phases = phases;
                }
                None => runs.push(VariantRun {
                    variant: variant.name().to_string(),
                    number: variant.paper_number(),
                    total_ops_per_sec: total,
                    phases,
                }),
            }
        }
    }
    ScenarioResult {
        name: name.to_string(),
        topology: topology.name(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        total_operations: workload.total_operations(),
        runs,
    }
}

/// Measures all four workload scenarios across all fourteen variants.
pub fn run_workload_bench(config: &WorkloadBenchConfig) -> WorkloadBaseline {
    // Paper numbering order, batch engine last.
    let variants = Variant::all_extended();
    let mut baseline = WorkloadBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        ..Default::default()
    };

    // --- power-law + Zipf -------------------------------------------------
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: 4,
    };
    let graph = topo.build(config.seed);
    let powerlaw_workload = dc_workloads::WorkloadSpec::new(config.threads, config.seed)
        .preload(0.5)
        .phase(
            dc_workloads::Phase::new("zipf-churn", config.ops_per_thread)
                .mix(50, 25, 25)
                .zipf(0.99),
        )
        .generate(&graph);
    baseline.scenarios.push(run_scenario(
        "powerlaw-zipf",
        &topo,
        &graph,
        &powerlaw_workload,
        &variants,
        config.repeats,
    ));

    // --- trace replay of the power-law workload ---------------------------
    // Record, decode twice, assert byte-level determinism, then measure the
    // replayed (decoded) workload — proving a trace round-trip changes
    // neither the operations nor (up to noise) the measured cost.
    let trace = Trace::record(&powerlaw_workload, config.seed, graph.num_vertices() as u32);
    let bytes = trace.to_bytes();
    let replay_a = Trace::from_bytes(&bytes).expect("recorded trace must decode");
    let replay_b = Trace::from_bytes(&bytes).expect("recorded trace must decode");
    assert_eq!(
        replay_a, replay_b,
        "decoding the same trace twice must yield identical operation sequences"
    );
    baseline.trace_bytes = bytes.len();
    baseline.replay_deterministic = true;
    let replayed = GeneratedWorkload {
        preload: replay_a.preload.clone(),
        phases: vec![dc_workloads::PhaseStream {
            name: "replay".to_string(),
            per_thread: replay_a.per_thread.clone(),
        }],
    };
    baseline.scenarios.push(run_scenario(
        "trace-replay",
        &topo,
        &graph,
        &replayed,
        &variants,
        config.repeats,
    ));

    // --- phased lifecycle over a ring of cliques ---------------------------
    let clique_size = 8;
    let topo = Topology::RingOfCliques {
        cliques: (config.n / clique_size).max(2),
        clique_size,
        extra_bridges: config.n / 16,
    };
    let graph = topo.build(config.seed ^ 0x11FE);
    let workload = presets::lifecycle(&graph, config.threads, config.ops_per_thread, config.seed);
    baseline.scenarios.push(run_scenario(
        "phased-lifecycle",
        &topo,
        &graph,
        &workload,
        &variants,
        config.repeats,
    ));

    // --- temporal sliding window over a grid universe ----------------------
    let side = (config.n as f64).sqrt() as usize;
    let topo = Topology::Grid {
        rows: side.max(2),
        cols: side.max(2),
    };
    let graph = topo.build(config.seed);
    // Clamp the window to half the per-thread stream so the scenario
    // actually *slides* — evictions must fire during the stream, not only
    // in the final drain — whatever graph size the config produced.
    let per_thread_stream = (graph.num_edges() / config.threads).max(2);
    let window = config.window.clamp(1, per_thread_stream / 2);
    let workload = presets::sliding_window(&graph, window, 20, config.threads, config.seed);
    baseline.scenarios.push(run_scenario(
        "sliding-window",
        &topo,
        &graph,
        &workload,
        &variants,
        config.repeats,
    ));

    baseline
}

impl WorkloadBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/workloads/v2\",\n");
        out.push_str(&format!("  \"git_rev\": {},\n", json_string(&self.git_rev)));
        if let Some(config) = &self.config {
            out.push_str("  \"config\": {\n");
            out.push_str(&format!("    \"vertices\": {},\n", config.n));
            out.push_str(&format!(
                "    \"ops_per_thread_per_phase\": {},\n",
                config.ops_per_thread
            ));
            out.push_str(&format!("    \"threads\": {},\n", config.threads));
            out.push_str(&format!("    \"window\": {},\n", config.window));
            out.push_str(&format!("    \"seed\": {},\n", config.seed));
            out.push_str(&format!("    \"repeats_best_of\": {}\n", config.repeats));
            out.push_str("  },\n");
        }
        out.push_str(&format!("  \"trace_bytes\": {},\n", self.trace_bytes));
        out.push_str(&format!(
            "  \"replay_deterministic\": {},\n",
            self.replay_deterministic
        ));
        out.push_str("  \"scenarios\": {");
        for (si, scenario) in self.scenarios.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {{\n", json_string(&scenario.name)));
            out.push_str(&format!(
                "      \"topology\": {},\n",
                json_string(&scenario.topology)
            ));
            out.push_str(&format!("      \"vertices\": {},\n", scenario.vertices));
            out.push_str(&format!("      \"edges\": {},\n", scenario.edges));
            out.push_str(&format!(
                "      \"total_operations\": {},\n",
                scenario.total_operations
            ));
            out.push_str("      \"variants\": {");
            for (vi, run) in scenario.runs.iter().enumerate() {
                if vi > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        {}: {{\n", json_string(&run.variant)));
                out.push_str(&format!("          \"number\": {},\n", run.number));
                out.push_str(&format!(
                    "          \"total_ops_per_sec\": {},\n",
                    json_number(run.total_ops_per_sec)
                ));
                out.push_str("          \"phases\": {");
                for (pi, cell) in run.phases.iter().enumerate() {
                    if pi > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n            {}: {{ \"operations\": {}, \"ops_per_sec\": {}, \
                         \"active_time_percent\": {}, \"wait_ms\": {}, \
                         \"p50_nanos\": {}, \"p99_nanos\": {}, \"p999_nanos\": {} }}",
                        json_string(&cell.phase),
                        cell.operations,
                        json_number(cell.ops_per_sec),
                        json_number(cell.active_time_percent),
                        json_number(cell.wait_ms),
                        cell.p50_nanos,
                        cell.p99_nanos,
                        cell.p999_nanos
                    ));
                }
                out.push_str("\n          }\n        }");
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders aligned text tables, one per scenario.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let threads = self.config.as_ref().map(|c| c.threads).unwrap_or(0);
        out.push_str(&format!(
            "== Workload scenarios ({} threads, rev {}) ==\n",
            threads, self.git_rev
        ));
        out.push_str(&format!(
            "trace: {} bytes, replay deterministic: {}\n",
            self.trace_bytes, self.replay_deterministic
        ));
        for scenario in &self.scenarios {
            out.push_str(&format!(
                "\n-- {} on {} (|V|={}, |E|={}, {} ops) --\n",
                scenario.name,
                scenario.topology,
                scenario.vertices,
                scenario.edges,
                scenario.total_operations
            ));
            let phase_names: Vec<&str> = scenario
                .runs
                .first()
                .map(|r| r.phases.iter().map(|p| p.phase.as_str()).collect())
                .unwrap_or_default();
            out.push_str(&format!("{:<44}{:>13}", "variant", "total ops/s"));
            for name in &phase_names {
                out.push_str(&format!("{:>13}", truncate(name, 12)));
            }
            out.push('\n');
            let mut sorted: Vec<&VariantRun> = scenario.runs.iter().collect();
            sorted.sort_by(|a, b| b.total_ops_per_sec.total_cmp(&a.total_ops_per_sec));
            for run in sorted {
                out.push_str(&format!(
                    "{:<44}{:>13.0}",
                    run.variant, run.total_ops_per_sec
                ));
                for cell in &run.phases {
                    out.push_str(&format!("{:>13.0}", cell.ops_per_sec));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// First `max` *characters* of `s` (phase names are caller-supplied, so a
/// byte-index slice could land inside a multi-byte character and panic).
fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_bench_runs_on_a_tiny_instance() {
        let config = WorkloadBenchConfig {
            n: 96,
            ops_per_thread: 120,
            threads: 2,
            window: 16,
            seed: 7,
            repeats: 1,
        };
        let baseline = run_workload_bench(&config);
        assert_eq!(baseline.scenarios.len(), 4);
        let names: Vec<&str> = baseline.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "powerlaw-zipf",
                "trace-replay",
                "phased-lifecycle",
                "sliding-window"
            ]
        );
        assert!(baseline.replay_deterministic);
        assert!(baseline.trace_bytes > 0);
        for scenario in &baseline.scenarios {
            // All fourteen variants, every phase measured.
            assert_eq!(scenario.runs.len(), 14, "{}", scenario.name);
            for run in &scenario.runs {
                assert!(run.total_ops_per_sec > 0.0, "{}", run.variant);
                assert!(!run.phases.is_empty());
                for cell in &run.phases {
                    assert!(cell.ops_per_sec > 0.0);
                    assert!(cell.operations > 0);
                    // 1-in-16 sampling over >= 100 ops always catches
                    // something, and the quantiles must be ordered.
                    assert!(cell.p50_nanos > 0, "{}/{}", run.variant, cell.phase);
                    assert!(cell.p50_nanos <= cell.p99_nanos);
                    assert!(cell.p99_nanos <= cell.p999_nanos);
                }
            }
        }
        let lifecycle = &baseline.scenarios[2];
        assert_eq!(lifecycle.runs[0].phases.len(), 4);
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/workloads/v2"));
        assert!(json.contains("p999_nanos"));
        assert!(json.contains("replay_deterministic"));
        assert!(json.contains("zipf-churn"));
        assert!(json.contains("read-storm"));
        assert!(baseline.render_text().contains("sliding-window"));
    }
}
