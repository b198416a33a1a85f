//! The read-path benchmark tier, emitted as `BENCH_reads.json`.
//!
//! `BENCH_workloads.json` showed read-heavy phases leaving variants at
//! 24–56% active time: for query-dominated traffic the two O(depth)
//! parent-pointer climbs of every `connected` are the dominant cost. This
//! tier measures the version-validated root-hint cache (`DESIGN.md` §8)
//! that replaces them — every scenario runs across **all fourteen
//! variants, with hints on and off**, so the speedup and the hit/miss
//! counters are attributable per variant:
//!
//! * **read-storm** — the [`dc_workloads::presets::read_storm`] preset
//!   (95/3/2, flash-crowd Zipf θ = 1.2, 90% preloaded) over *power-law
//!   communities*
//!   (disjoint preferential-attachment clusters, the multi-tenant service
//!   shape): churn lands mostly on non-spanning edges, and the occasional
//!   spanning change only bumps the root of its own community, so the
//!   other communities' hints keep validating. The headline scenario; the
//!   CI gate asserts a non-zero hit rate here.
//! * **zipf-read** — 100% reads over a single *giant* power-law component:
//!   the pure-read ceiling of the fast path (after warm-up every query is
//!   two hint loads plus the validation loads). The giant component also
//!   shows the flip side measured by read-storm's community split: one
//!   structural change here invalidates every vertex's hint at once.
//! * **mixed-churn-readers** — 50/25/25 at θ = 0.8 over a ring of cliques
//!   whose bridges make spanning-edge churn (and therefore hint
//!   invalidation) frequent: the adversarial regime, where the cache must
//!   not cost more than it saves.
//!
//! Hints are toggled on each structure the tier builds
//! ([`dynconn::DynamicConnectivity::set_read_hints`]); counters come back
//! through [`dynconn::DynamicConnectivity::read_hint_counters`]. Variants whose
//! reads are lock-based never consult the cache — their cells report zero
//! consultations and a ~1x speedup, which is itself part of the result
//! (the cache only accelerates the lock-free read protocol).

use crate::report::{json_number, json_string};
use dc_batch::Variant;
use dc_sync::waitstats;
use dc_workloads::{presets, GeneratedWorkload, Op, Phase, Topology, WorkloadSpec};
use dynconn::DynamicConnectivity;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Scenario parameters for the read-path benchmark.
#[derive(Clone, Debug)]
pub struct ReadBenchConfig {
    /// Vertex budget for the generated topologies.
    pub n: usize,
    /// Power-law attachment degree (edge universe is roughly `n * m`).
    pub m_per_vertex: usize,
    /// Per-thread operation budget per scenario.
    pub ops_per_thread: usize,
    /// Concurrent threads.
    pub threads: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Repetitions; best throughput per cell is kept.
    pub repeats: usize,
}

impl ReadBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`, thread
    /// count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut config = if quick {
            ReadBenchConfig {
                n: 512,
                m_per_vertex: 6,
                ops_per_thread: 2_000,
                threads: 4,
                seed: 0x5EAD,
                repeats: 1,
            }
        } else {
            ReadBenchConfig {
                n: 16_384,
                m_per_vertex: 8,
                ops_per_thread: 40_000,
                threads: 8,
                seed: 0x5EAD,
                // Best-of-5 per (variant, mode) cell: this box runs 8 bench
                // threads on few cores, so single-run speedup ratios are
                // noisy; taking the best of more repeats stabilizes both
                // sides of the on/off ratio.
                repeats: 5,
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

/// One measured (variant, hints on/off) cell.
#[derive(Clone, Debug)]
pub struct ReadCell {
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Active time rate in percent.
    pub active_time_percent: f64,
    /// Total lock-wait time across threads, milliseconds.
    pub wait_ms: f64,
    /// Hint-cache hits during the kept run (0 for lock-based readers).
    pub hint_hits: u64,
    /// Hint-cache misses during the kept run.
    pub hint_misses: u64,
}

impl ReadCell {
    /// Percentage of hint consultations that hit.
    pub fn hit_rate_percent(&self) -> f64 {
        let total = self.hint_hits + self.hint_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hint_hits as f64 / total as f64
        }
    }
}

/// One variant under one scenario: the hints-on and hints-off cells.
#[derive(Clone, Debug)]
pub struct VariantReadRun {
    /// The variant's display name.
    pub variant: String,
    /// The variant's paper number (1–14).
    pub number: u8,
    /// Measured with the hint cache enabled.
    pub hints_on: ReadCell,
    /// Measured with the hint cache disabled.
    pub hints_off: ReadCell,
}

impl VariantReadRun {
    /// Hints-on throughput over hints-off throughput.
    pub fn speedup(&self) -> f64 {
        self.hints_on.ops_per_sec / self.hints_off.ops_per_sec.max(1e-9)
    }
}

/// One read scenario: the graph it ran on and all variant runs.
#[derive(Clone, Debug)]
pub struct ReadScenarioResult {
    /// Scenario key used in JSON ("read-storm", ...).
    pub name: String,
    /// Topology description.
    pub topology: String,
    /// Vertices of the universe.
    pub vertices: usize,
    /// Edges of the universe.
    pub edges: usize,
    /// Total operations per variant run.
    pub total_operations: usize,
    /// All variant runs, in paper-number order.
    pub runs: Vec<VariantReadRun>,
}

impl ReadScenarioResult {
    /// The run of paper variant `number`, if measured.
    pub fn run(&self, number: u8) -> Option<&VariantReadRun> {
        self.runs.iter().find(|r| r.number == number)
    }
}

/// The full read-path measurement, serialized as `BENCH_reads.json`.
#[derive(Clone, Debug, Default)]
pub struct ReadBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<ReadBenchConfig>,
    /// All scenarios.
    pub scenarios: Vec<ReadScenarioResult>,
}

impl ReadBaseline {
    /// The scenario named `name`, if measured.
    pub fn scenario(&self, name: &str) -> Option<&ReadScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Runs one single-phase workload to completion, returning throughput,
/// waitstats and the structure's hint counters for the run.
fn measure(structure: &dyn DynamicConnectivity, workload: &GeneratedWorkload) -> ReadCell {
    for edge in &workload.preload {
        structure.add_edge(edge.u(), edge.v());
    }
    let (hits0, misses0) = structure.read_hint_counters().unwrap_or((0, 0));
    let phase = &workload.phases[0];
    let threads = phase.per_thread.len();
    waitstats::reset();
    waitstats::set_enabled(true);
    let start_flag = AtomicBool::new(false);
    let started = Instant::now();
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
                    for op in ops {
                        match *op {
                            Op::Add(u, v) => structure.add_edge(u, v),
                            Op::Remove(u, v) => structure.remove_edge(u, v),
                            Op::Query(u, v) => {
                                std::hint::black_box(structure.connected(u, v));
                            }
                        }
                    }
                })
            })
            .collect();
        start_flag.store(true, Ordering::Release);
        for handle in handles {
            handle.join().expect("read bench worker panicked");
        }
    });
    let elapsed = started.elapsed();
    waitstats::set_enabled(false);
    let (hits1, misses1) = structure.read_hint_counters().unwrap_or((0, 0));
    let operations = phase.total_operations();
    let total_thread_nanos = (elapsed.as_nanos() as u64).saturating_mul(threads as u64);
    ReadCell {
        ops_per_sec: operations as f64 / elapsed.as_secs_f64().max(1e-9),
        active_time_percent: waitstats::active_time_rate_percent(total_thread_nanos),
        wait_ms: waitstats::total_wait_nanos() as f64 / 1e6,
        hint_hits: hits1.saturating_sub(hits0),
        hint_misses: misses1.saturating_sub(misses0),
    }
}

/// Measures `workload` for `variant` with the hint cache on or off.
fn measure_variant(
    variant: Variant,
    n: usize,
    workload: &GeneratedWorkload,
    hints: bool,
) -> ReadCell {
    let structure = variant.build(n);
    structure.set_read_hints(hints);
    measure(structure.as_ref(), workload)
}

/// Runs one scenario over every variant, hints on and off, keeping the
/// best-throughput cell per (variant, mode) across `repeats`.
fn run_read_scenario(
    name: &str,
    topology: &Topology,
    graph: &dc_graph::Graph,
    workload: &GeneratedWorkload,
    variants: &[Variant],
    repeats: usize,
) -> ReadScenarioResult {
    assert_eq!(
        workload.phases.len(),
        1,
        "read scenarios are single-phase by construction"
    );
    let mut runs: Vec<VariantReadRun> = Vec::new();
    for _ in 0..repeats.max(1) {
        for &variant in variants {
            let on = measure_variant(variant, graph.num_vertices(), workload, true);
            let off = measure_variant(variant, graph.num_vertices(), workload, false);
            match runs.iter_mut().find(|r| r.number == variant.paper_number()) {
                Some(run) => {
                    if on.ops_per_sec > run.hints_on.ops_per_sec {
                        run.hints_on = on;
                    }
                    if off.ops_per_sec > run.hints_off.ops_per_sec {
                        run.hints_off = off;
                    }
                }
                None => runs.push(VariantReadRun {
                    variant: variant.name().to_string(),
                    number: variant.paper_number(),
                    hints_on: on,
                    hints_off: off,
                }),
            }
        }
    }
    ReadScenarioResult {
        name: name.to_string(),
        topology: topology.name(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        total_operations: workload.total_operations(),
        runs,
    }
}

/// Measures the three read-path scenarios across all fourteen variants,
/// with the hint cache on and off.
pub fn run_read_bench(config: &ReadBenchConfig) -> ReadBaseline {
    let variants = Variant::all_extended();
    let mut baseline = ReadBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        ..Default::default()
    };

    // --- read-storm: the headline scenario ---------------------------------
    let community_n = 256.min(config.n / 2).max(8);
    let topo = Topology::PowerLawCommunities {
        communities: (config.n / community_n).max(1),
        community_n,
        m_per_vertex: config.m_per_vertex,
    };
    let graph = topo.build(config.seed);
    let workload = presets::read_storm(&graph, config.threads, config.ops_per_thread, config.seed);
    baseline.scenarios.push(run_read_scenario(
        "read-storm",
        &topo,
        &graph,
        &workload,
        &variants,
        config.repeats,
    ));

    // --- zipf-read: the pure-read ceiling (one giant component) ------------
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: config.m_per_vertex,
    };
    let graph = topo.build(config.seed);
    let workload = WorkloadSpec::new(config.threads, config.seed ^ 0x21)
        .preload(1.0)
        .phase(
            Phase::new("zipf-read", config.ops_per_thread)
                .mix(100, 0, 0)
                .zipf(0.99),
        )
        .generate(&graph);
    baseline.scenarios.push(run_read_scenario(
        "zipf-read",
        &topo,
        &graph,
        &workload,
        &variants,
        config.repeats,
    ));

    // --- mixed churn with readers: the invalidation-heavy regime -----------
    let clique_size = 8;
    let topo = Topology::RingOfCliques {
        cliques: (config.n / clique_size).max(2),
        clique_size,
        extra_bridges: config.n / 16,
    };
    let graph = topo.build(config.seed ^ 0xC4);
    let workload = WorkloadSpec::new(config.threads, config.seed ^ 0xC4)
        .preload(0.5)
        .phase(
            Phase::new("mixed-churn", config.ops_per_thread)
                .mix(50, 25, 25)
                .zipf(0.8),
        )
        .generate(&graph);
    baseline.scenarios.push(run_read_scenario(
        "mixed-churn-readers",
        &topo,
        &graph,
        &workload,
        &variants,
        config.repeats,
    ));

    baseline
}

impl ReadBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/reads/v1\",\n");
        out.push_str(&format!("  \"git_rev\": {},\n", json_string(&self.git_rev)));
        if let Some(config) = &self.config {
            out.push_str("  \"config\": {\n");
            out.push_str(&format!("    \"vertices\": {},\n", config.n));
            out.push_str(&format!("    \"m_per_vertex\": {},\n", config.m_per_vertex));
            out.push_str(&format!(
                "    \"ops_per_thread\": {},\n",
                config.ops_per_thread
            ));
            out.push_str(&format!("    \"threads\": {},\n", config.threads));
            out.push_str(&format!("    \"seed\": {},\n", config.seed));
            out.push_str(&format!("    \"repeats_best_of\": {}\n", config.repeats));
            out.push_str("  },\n");
        }
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
                for (key, cell) in [("hints_on", &run.hints_on), ("hints_off", &run.hints_off)] {
                    out.push_str(&format!(
                        "          \"{}\": {{ \"ops_per_sec\": {}, \"active_time_percent\": {}, \
                         \"wait_ms\": {}, \"hint_hits\": {}, \"hint_misses\": {}, \
                         \"hint_hit_rate_percent\": {} }},\n",
                        key,
                        json_number(cell.ops_per_sec),
                        json_number(cell.active_time_percent),
                        json_number(cell.wait_ms),
                        cell.hint_hits,
                        cell.hint_misses,
                        json_number(cell.hit_rate_percent())
                    ));
                }
                out.push_str(&format!(
                    "          \"speedup_hints_on_vs_off\": {}\n        }}",
                    json_number(run.speedup())
                ));
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
            "== Read-path tier ({} threads, rev {}) ==\n",
            threads, self.git_rev
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
            out.push_str(&format!(
                "{:<44}{:>14}{:>14}{:>9}{:>10}\n",
                "variant", "hints ops/s", "plain ops/s", "speedup", "hit rate"
            ));
            let mut sorted: Vec<&VariantReadRun> = scenario.runs.iter().collect();
            sorted.sort_by(|a, b| b.speedup().total_cmp(&a.speedup()));
            for run in sorted {
                out.push_str(&format!(
                    "{:<44}{:>14.0}{:>14.0}{:>8.2}x{:>9.1}%\n",
                    run.variant,
                    run.hints_on.ops_per_sec,
                    run.hints_off.ops_per_sec,
                    run.speedup(),
                    run.hints_on.hit_rate_percent()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bench_runs_on_a_tiny_instance() {
        let config = ReadBenchConfig {
            n: 96,
            m_per_vertex: 4,
            ops_per_thread: 300,
            threads: 2,
            seed: 7,
            repeats: 1,
        };
        let baseline = run_read_bench(&config);
        let names: Vec<&str> = baseline.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["read-storm", "zipf-read", "mixed-churn-readers"]);
        for scenario in &baseline.scenarios {
            assert_eq!(scenario.runs.len(), 14, "{}", scenario.name);
            for run in &scenario.runs {
                assert!(run.hints_on.ops_per_sec > 0.0, "{}", run.variant);
                assert!(run.hints_off.ops_per_sec > 0.0, "{}", run.variant);
                assert_eq!(
                    run.hints_off.hint_hits, 0,
                    "{}: hints-off runs must never consult the cache",
                    run.variant
                );
            }
        }
        // The lock-free read variants actually exercise the cache on the
        // read storm...
        let storm = baseline.scenario("read-storm").unwrap();
        for number in [3, 5, 8, 9, 10, 11, 13, 14] {
            let run = storm.run(number).unwrap();
            assert!(
                run.hints_on.hint_hits > 0,
                "variant {number} saw no hint hits on the read storm"
            );
        }
        // ...and the lock-based readers never do (their reads hold locks).
        for number in [1, 2, 4, 6, 7] {
            let run = storm.run(number).unwrap();
            assert_eq!(
                run.hints_on.hint_hits + run.hints_on.hint_misses,
                0,
                "variant {number} has no lock-free read path to consult hints"
            );
        }
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/reads/v1"));
        assert!(json.contains("speedup_hints_on_vs_off"));
        assert!(json.contains("hint_hit_rate_percent"));
        assert!(baseline.render_text().contains("hit rate"));
    }
}
