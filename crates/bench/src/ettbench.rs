//! The Euler-Tour-Tree node-layer benchmark: sustained churn, incremental
//! and decremental throughput, and the arena-occupancy memory proxy.
//!
//! The adjacency layer got its flat store and its tracked baseline
//! (`BENCH_adjacency.json`) in PR 1; this module does the same for the ETT
//! node layer.  The scenarios run on [`EulerForest`] directly so the numbers
//! isolate the treap/arena hot path from the HDT level structure:
//!
//! * **incremental** — link `n - 1` random-tree edges into an empty forest;
//! * **decremental** — cut all `n - 1` edges of that tree in random order;
//! * **churn** — at a steady live-edge count, repeatedly cut a random
//!   spanning edge and link a replacement. This is the memory-stability
//!   scenario: every cut retires two Euler-tour edge nodes and every link
//!   allocates two, so an arena that never recycles slots grows linearly
//!   with the operation count while a recycling arena stays bounded by the
//!   live tour size.  The benchmark records the peak arena occupancy against
//!   the live node count as an RSS proxy.
//! * **churn + readers** — the same churn loop with concurrent lock-free
//!   `connected` readers, measuring what reclamation costs the read path.
//!
//! Results are emitted as `BENCH_ett.json` (schema `dc-bench/ett-churn/v1`)
//! with the git revision and scenario metadata so the perf trajectory is
//! machine-trackable, alongside the frozen PR 1 numbers measured on the
//! pre-reclamation arena for the before/after comparison.

use crate::config::quick;
use crate::report::{document, Json};
use dc_ett::EulerForest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// Scenario parameters for the ETT node-layer benchmark.
#[derive(Clone, Copy, Debug)]
pub struct EttBenchConfig {
    /// Number of vertices (the steady live-edge count is `n - 1`).
    pub n: usize,
    /// Number of cut+link pairs in the churn scenarios.
    pub churn_ops: usize,
    /// Concurrent `connected` readers in the reader scenario.
    pub readers: usize,
    /// PRNG seed shared by all scenarios.
    pub seed: u64,
    /// Repetitions per scenario; the recorded throughput is the best run
    /// (occupancies the worst), which filters shared-machine noise out of
    /// the tracked trajectory.
    pub repeats: usize,
}

impl EttBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`).
    pub fn from_env() -> Self {
        let (n, churn_ops, readers, repeats) = if quick() {
            (10_000, 20_000, 2, 2)
        } else {
            (100_000, 400_000, 3, 5)
        };
        EttBenchConfig {
            n,
            churn_ops,
            readers,
            seed: 0xE77,
            repeats,
        }
    }
}

/// One measured scenario cell.
#[derive(Clone, Debug)]
pub struct EttCell {
    /// Scenario name.
    pub scenario: String,
    /// Writer operations per second.
    pub ops_per_sec: f64,
    /// Arena slots allocated when the scenario finished.
    pub final_occupancy: usize,
    /// Peak arena slots observed during the scenario.
    pub peak_occupancy: usize,
    /// Live tour nodes (vertices + 2 × spanning edges) at the end.
    pub live_nodes: usize,
}

impl EttCell {
    /// Peak occupancy over live nodes — the memory-stability headline (1.0
    /// is a perfectly recycling arena; the append-only arena grows with the
    /// operation count).
    pub fn occupancy_ratio(&self) -> f64 {
        self.peak_occupancy as f64 / (self.live_nodes.max(1)) as f64
    }
}

/// The full ETT node-layer measurement, serialized as `BENCH_ett.json`.
#[derive(Clone, Debug, Default)]
pub struct EttBaseline {
    /// Vertices per scenario.
    pub n: usize,
    /// Churn operation count.
    pub churn_ops: usize,
    /// Reader threads in the reader scenario.
    pub readers: usize,
    /// Repetitions per scenario (best throughput / worst occupancy kept).
    pub repeats: usize,
    /// All measured cells.
    pub cells: Vec<EttCell>,
}

/// The frozen PR 1 numbers (append-only arena, recursive merge, SeqCst
/// parent links, 56-byte nodes with an embedded per-node lock), measured at
/// rev b3951cc with this exact harness (tracked configuration, best-of-5)
/// in a worktree, *interleaved in time* with the current-code runs recorded
/// in `BENCH_ett.json` — throughput on this shared box swings ±30% between
/// windows, so only same-window pairs are comparable. Kept verbatim so
/// `BENCH_ett.json` always carries the before/after pair.
pub const PR1_BASELINE: &[(&str, f64, usize, usize, usize)] = &[
    // (scenario, ops_per_sec, final_occupancy, peak_occupancy, live_nodes)
    ("incremental", 386_459.0, 299_998, 299_998, 299_998),
    ("decremental", 624_150.0, 299_998, 299_998, 100_000),
    ("churn", 219_328.0, 1_099_998, 1_099_998, 299_998),
    ("churn+readers", 55_906.0, 1_099_998, 1_099_998, 299_998),
];

/// Builds a uniformly random recursive tree on `forest` and returns its
/// edge list.
fn build_random_tree(forest: &EulerForest, n: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n as u32 {
        let parent = rng.gen_range(0..v);
        forest.link(parent, v);
        edges.push((parent, v));
    }
    edges
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Runs every scenario on the tracked configuration, `config.repeats` times
/// each, keeping the best throughput and the worst occupancy per scenario.
pub fn run_ett_bench(config: &EttBenchConfig) -> EttBaseline {
    let mut baseline = EttBaseline {
        n: config.n,
        churn_ops: config.churn_ops,
        readers: config.readers,
        repeats: config.repeats,
        ..Default::default()
    };
    for _ in 0..config.repeats.max(1) {
        for cell in run_scenarios_once(config) {
            match baseline
                .cells
                .iter_mut()
                .find(|c| c.scenario == cell.scenario)
            {
                Some(best) => {
                    best.ops_per_sec = best.ops_per_sec.max(cell.ops_per_sec);
                    best.final_occupancy = best.final_occupancy.max(cell.final_occupancy);
                    best.peak_occupancy = best.peak_occupancy.max(cell.peak_occupancy);
                    best.live_nodes = cell.live_nodes;
                }
                None => baseline.cells.push(cell),
            }
        }
    }
    baseline
}

/// One pass over all four scenarios (identical work every repeat: the PRNG
/// reseeds from the config).
fn run_scenarios_once(config: &EttBenchConfig) -> Vec<EttCell> {
    let mut cells = Vec::with_capacity(4);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n;

    // --- incremental + decremental on one forest --------------------------
    let forest = EulerForest::with_seed(n, config.seed);
    let start = std::time::Instant::now();
    let mut edges = build_random_tree(&forest, n, &mut rng);
    let incr_secs = start.elapsed().as_secs_f64();
    cells.push(EttCell {
        scenario: "incremental".into(),
        ops_per_sec: edges.len() as f64 / incr_secs.max(1e-9),
        final_occupancy: forest.arena_occupancy(),
        peak_occupancy: forest.arena_occupancy(),
        live_nodes: forest.live_node_count(),
    });

    shuffle(&mut edges, &mut rng);
    let start = std::time::Instant::now();
    for &(u, v) in &edges {
        forest.cut(u, v);
    }
    let decr_secs = start.elapsed().as_secs_f64();
    cells.push(EttCell {
        scenario: "decremental".into(),
        ops_per_sec: edges.len() as f64 / decr_secs.max(1e-9),
        final_occupancy: forest.arena_occupancy(),
        peak_occupancy: forest.arena_occupancy(),
        live_nodes: forest.live_node_count(),
    });

    // --- churn (and churn with concurrent readers) ------------------------
    for readers in [0usize, config.readers] {
        cells.push(run_churn(config, readers, &mut rng));
    }
    cells
}

/// The steady-state churn loop: cut a random spanning edge, link a
/// replacement, keeping `n - 1` live edges throughout.
fn run_churn(config: &EttBenchConfig, readers: usize, rng: &mut StdRng) -> EttCell {
    let n = config.n;
    let forest = EulerForest::with_seed(n, config.seed ^ 0xC0FFEE);
    let mut edges = build_random_tree(&forest, n, rng);
    let stop = AtomicBool::new(false);
    let mut peak = forest.arena_occupancy();
    let mut ops = 0usize;

    let secs = std::thread::scope(|s| {
        for r in 0..readers {
            let forest = &forest;
            let stop = &stop;
            let mut reader_rng = StdRng::seed_from_u64(config.seed ^ (r as u64 + 1));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let u = reader_rng.gen_range(0..n as u32);
                    let v = reader_rng.gen_range(0..n as u32);
                    std::hint::black_box(forest.connected(u, v));
                }
            });
        }
        let start = std::time::Instant::now();
        for i in 0..config.churn_ops {
            let idx = rng.gen_range(0..edges.len());
            let (u, v) = edges[idx];
            forest.cut(u, v);
            // Half the time try to rewire through a random pair so the tree
            // shape actually churns; fall back to relinking the same cut.
            let x = rng.gen_range(0..n as u32);
            let y = rng.gen_range(0..n as u32);
            if x != y && !forest.connected(x, y) {
                forest.link(x, y);
                edges[idx] = (x, y);
            } else {
                forest.link(u, v);
            }
            ops += 2;
            if i % 1024 == 0 {
                peak = peak.max(forest.arena_occupancy());
            }
        }
        let secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        secs
    });
    peak = peak.max(forest.arena_occupancy());

    EttCell {
        scenario: if readers == 0 {
            "churn".into()
        } else {
            "churn+readers".into()
        },
        ops_per_sec: ops as f64 / secs.max(1e-9),
        final_occupancy: forest.arena_occupancy(),
        peak_occupancy: peak,
        live_nodes: forest.live_node_count(),
    }
}

impl EttBaseline {
    /// Renders the measurement (current numbers plus the frozen PR 1
    /// baseline) as the `dc-bench/ett-churn/v1` document.
    pub fn to_json(&self) -> String {
        let cell = |ops: f64, fin: usize, peak: usize, live: usize| {
            Json::obj([
                ("ops_per_sec", Json::Num(ops)),
                ("final_occupancy", Json::int(fin)),
                ("peak_occupancy", Json::int(peak)),
                ("live_nodes", Json::int(live)),
                (
                    "occupancy_ratio",
                    Json::Num(peak as f64 / live.max(1) as f64),
                ),
            ])
        };
        let current = self.cells.iter().map(|c| {
            let json = cell(
                c.ops_per_sec,
                c.final_occupancy,
                c.peak_occupancy,
                c.live_nodes,
            );
            (c.scenario.as_str(), json)
        });
        let pr1 = PR1_BASELINE
            .iter()
            .map(|&(scenario, ops, fin, peak, live)| (scenario, cell(ops, fin, peak, live)));
        document(
            "dc-bench/ett-churn/v1",
            vec![
                (
                    "scenario",
                    Json::obj([
                        ("vertices", Json::int(self.n)),
                        ("live_edges", Json::int(self.n.saturating_sub(1))),
                        ("churn_ops", Json::int(self.churn_ops)),
                        ("reader_threads", Json::int(self.readers)),
                        ("repeats_best_of", Json::int(self.repeats)),
                    ]),
                ),
                ("current", Json::obj(current)),
                ("pr1_baseline", Json::obj(pr1)),
            ],
        )
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== ETT node layer (n = {}, churn_ops = {}) ==\n",
            self.n, self.churn_ops
        ));
        out.push_str(&format!(
            "{:<16}{:>14}{:>14}{:>14}{:>12}\n",
            "scenario", "ops/s", "peak occ", "live nodes", "occ ratio"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<16}{:>14.0}{:>14}{:>14}{:>12.2}\n",
                cell.scenario,
                cell.ops_per_sec,
                cell.peak_occupancy,
                cell.live_nodes,
                cell.occupancy_ratio()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_bench_runs_on_a_small_instance() {
        let config = EttBenchConfig {
            n: 64,
            churn_ops: 200,
            readers: 1,
            seed: 7,
            repeats: 2,
        };
        let baseline = run_ett_bench(&config);
        assert_eq!(baseline.cells.len(), 4);
        for cell in &baseline.cells {
            assert!(cell.ops_per_sec > 0.0, "{} measured nothing", cell.scenario);
            assert!(
                cell.peak_occupancy >= cell.live_nodes,
                "{}: peak occupancy {} cannot be below the live node count {}",
                cell.scenario,
                cell.peak_occupancy,
                cell.live_nodes
            );
        }
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/ett-churn/v1"));
        assert!(json.contains("pr1_baseline"));
        assert!(baseline.render_text().contains("churn+readers"));
    }
}
