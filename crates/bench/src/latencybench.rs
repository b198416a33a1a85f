//! The huge-graph latency tier, emitted as `BENCH_latency.json`.
//!
//! Every earlier tier reports *throughput*; this one measures the shape of
//! the per-query latency distribution on graphs large enough that the
//! parent-pointer climbs of `connected` are DRAM-bound (default n = 10M
//! vertices, scalable to 50M+ via `DC_BENCH_SCALE`). At that size a
//! Listing-1 read walks one cache-missing hop at a time, so memory
//! latency — not instruction count — dominates, and the interleaved,
//! prefetched bulk-read path (`EulerForest::connected_many_with`) can
//! overlap W independent climbs to hide it. Width 1 runs the climbs one
//! after another and is the baseline the wider cells are compared with.
//!
//! Two query mixes run over one shared structure (queries never mutate,
//! so a single expensive load serves every cell):
//!
//! * **read-storm** — uniform random pairs: effectively cold reads, every
//!   climb hop misses cache. The headline cell; the CI gate asserts the
//!   best wider width beats width 1 by [`GATE_SPEEDUP_FLOOR`] here (with
//!   hints off, i.e. on the pure climbing protocol) whenever the run is at
//!   full scale ([`GATE_MIN_VERTICES`]).
//! * **zipf-read** — Zipf(θ = 0.99) hot-set pairs: the cache-friendly
//!   regime where sequential climbs already sit in LLC and interleaving
//!   must not cost anything.
//!
//! Each mix runs the interleaved engine at W ∈ {1, 4, 8, 16}, hints on and
//! off (4 widths × 2 hint modes × 2 mixes = 16 cells). Per-query latency
//! is derived from per-batch timing (batches of [`LatencyBenchConfig::batch`]
//! pairs through `connected_many`), recorded into the fixed-bucket
//! [`LatencyHistogram`], so p50/p90/p99/p999 ride alongside the mean.
//!
//! The structure is loaded **streamed**: a synthetic SNAP-format edge text
//! is generated lazily by an in-memory [`std::io::Read`] source and fed
//! through [`dc_graph::EdgeBatchReader`], so no whole-graph edge list is
//! ever materialized — the same shape a 50M-vertex load from disk would
//! take. Before measuring, a differential pass checks the interleaved
//! engine against per-pair `connected` with hints off (the paper's
//! Listing-1 climb) on a query prefix for every (width, hints)
//! combination and panics on any disagreement.

use crate::config::bench_scale;
use crate::report::{json_number, json_string};
use crate::stats::LatencyHistogram;
use dc_graph::EdgeBatchReader;
use dynconn::Hdt;
use std::io::Read;
use std::time::Instant;

/// The CI gate's speedup floor: at full scale, the best interleaved cell
/// must beat width 1 by at least this factor on cold reads (read-storm,
/// hints off).
pub const GATE_SPEEDUP_FLOOR: f64 = 1.3;

/// The gate only binds at or above this vertex count — below it the
/// structure fits in cache, climbs stop being DRAM-bound, and the speedup
/// the gate protects is not expected (quick/CI runs still check
/// agreement with the climb and distribution sanity).
pub const GATE_MIN_VERTICES: usize = 10_000_000;

/// Streaming load batch size (edges per `EdgeBatchReader` batch).
const LOAD_BATCH: usize = 65_536;

/// Differential-oracle prefix length per (scenario, width, hints) cell.
const AGREEMENT_PREFIX: usize = 2_048;

/// Scenario parameters for the latency tier.
#[derive(Clone, Debug)]
pub struct LatencyBenchConfig {
    /// Vertices of the synthetic graph (one spanning tree component).
    pub vertices: usize,
    /// Extra non-tree edges streamed on top of the `vertices - 1` tree
    /// edges (they exercise the loader, not connectivity).
    pub extra_edges: usize,
    /// Queries measured per cell.
    pub queries_per_cell: usize,
    /// Pairs per `connected_many` call (per-batch timing granularity).
    pub batch: usize,
    /// Interleave widths measured (include 1: it is the gate's baseline).
    pub widths: Vec<usize>,
    /// PRNG seed.
    pub seed: u64,
    /// The `DC_BENCH_SCALE` factor the sizes were derived from.
    pub scale: f64,
}

impl LatencyBenchConfig {
    /// The tracked configuration: n = 10M × [`bench_scale`] (so
    /// `DC_BENCH_SCALE=5` reaches 50M and `DC_BENCH_SCALE=0.01` is a fast
    /// sanity run), shrunk outright under `DC_BENCH_QUICK=1`.
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        if quick {
            return LatencyBenchConfig {
                vertices: 20_000,
                extra_edges: 4_000,
                queries_per_cell: 4_000,
                batch: 256,
                widths: vec![1, 4, 8, 16],
                seed: 0x1A7E,
                scale: 1.0,
            };
        }
        let scale = bench_scale();
        let vertices = ((10_000_000f64 * scale).round() as usize).max(1_024);
        LatencyBenchConfig {
            vertices,
            extra_edges: vertices / 8,
            queries_per_cell: 200_000,
            batch: 256,
            widths: vec![1, 4, 8, 16],
            seed: 0x1A7E,
            scale,
        }
    }
}

/// One measured (scenario, width, hints) cell.
#[derive(Clone, Debug)]
pub struct LatencyCell {
    /// Scenario key ("read-storm" / "zipf-read").
    pub scenario: String,
    /// Interleave width.
    pub width: usize,
    /// Whether the root-hint cache was enabled.
    pub hints: bool,
    /// Queries measured.
    pub queries: usize,
    /// Mean per-query latency in nanoseconds.
    pub mean_ns: f64,
    /// Median per-query latency (batch-mean resolution), nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Worst observed (batch-mean) per-query latency, nanoseconds.
    pub max_ns: u64,
    /// How many queried pairs were connected (cross-width checksum: every
    /// width must agree on this for the same scenario).
    pub connected_true: u64,
}

/// The full latency measurement, serialized as `BENCH_latency.json`.
#[derive(Clone, Debug, Default)]
pub struct LatencyBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<LatencyBenchConfig>,
    /// Vertices actually interned by the streaming load.
    pub vertices: usize,
    /// Edges streamed into the structure.
    pub edges_loaded: usize,
    /// Wall-clock load time, milliseconds.
    pub load_millis: f64,
    /// Queries cross-checked between per-pair `connected` and each
    /// interleaved configuration before measuring.
    pub agreement_queries: usize,
    /// All measured cells.
    pub cells: Vec<LatencyCell>,
}

impl LatencyBaseline {
    /// The cell for (`scenario`, `width`, `hints`), if measured.
    pub fn cell(&self, scenario: &str, width: usize, hints: bool) -> Option<&LatencyCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.width == width && c.hints == hints)
    }

    /// The gate quantity: the width-1 mean over the best wider mean on
    /// the cold-read cell (read-storm, hints off). `None` until both sides
    /// were measured.
    pub fn read_storm_cold_speedup(&self) -> Option<f64> {
        let sequential = self.cell("read-storm", 1, false)?;
        let best = self
            .cells
            .iter()
            .filter(|c| c.scenario == "read-storm" && !c.hints && c.width > 1)
            .map(|c| c.mean_ns)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            Some(sequential.mean_ns / best.max(1e-9))
        } else {
            None
        }
    }

    /// Whether the speedup gate binds for this run (full-scale only).
    pub fn gate_applies(&self) -> bool {
        self.vertices >= GATE_MIN_VERTICES
    }

    /// `true` when the run satisfies the gate: at full scale the cold-read
    /// speedup must reach [`GATE_SPEEDUP_FLOOR`]; below full scale the run
    /// only has to have produced both sides of the comparison (agreement
    /// is enforced earlier, during the run itself).
    pub fn gate_passes(&self) -> bool {
        match self.read_storm_cold_speedup() {
            Some(speedup) => !self.gate_applies() || speedup >= GATE_SPEEDUP_FLOOR,
            None => false,
        }
    }
}

/// `splitmix64` — the PRNG behind the synthetic stream and the uniform
/// query mix (deterministic, seedable, no dependency on `rand` state size).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An in-memory SNAP-format edge-list source generated lazily: a random
/// attachment tree (`parent i`-lines for i in 1..n, parent uniform below
/// i — one connected component, treap depth O(log n)) followed by `extra`
/// uniform non-tree edges. Only one small text block exists at a time, so
/// feeding this through [`EdgeBatchReader`] loads n = 50M without ever
/// materializing the edge list.
struct SyntheticEdgeStream {
    n: u64,
    extra: u64,
    next_vertex: u64,
    emitted_extra: u64,
    state: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl SyntheticEdgeStream {
    fn new(n: usize, extra: usize, seed: u64) -> Self {
        SyntheticEdgeStream {
            n: n.max(2) as u64,
            extra: extra as u64,
            next_vertex: 1,
            emitted_extra: 0,
            state: seed,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn refill(&mut self) {
        use std::io::Write;
        self.buf.clear();
        self.pos = 0;
        let mut lines = 0;
        while lines < 4_096 && self.next_vertex < self.n {
            let v = self.next_vertex;
            let p = splitmix64(&mut self.state) % v;
            writeln!(self.buf, "{p} {v}").expect("writing to a Vec cannot fail");
            self.next_vertex += 1;
            lines += 1;
        }
        while lines < 4_096 && self.emitted_extra < self.extra {
            let u = splitmix64(&mut self.state) % self.n;
            let v = splitmix64(&mut self.state) % self.n;
            // Self-loops are legal SNAP input; the reader drops them.
            writeln!(self.buf, "{u} {v}").expect("writing to a Vec cannot fail");
            self.emitted_extra += 1;
            lines += 1;
        }
    }
}

impl Read for SyntheticEdgeStream {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            self.refill();
            if self.buf.is_empty() {
                return Ok(0);
            }
        }
        let len = out.len().min(self.buf.len() - self.pos);
        out[..len].copy_from_slice(&self.buf[self.pos..self.pos + len]);
        self.pos += len;
        Ok(len)
    }
}

/// The uniform cold-read query mix.
fn uniform_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let u = (splitmix64(&mut state) % n as u64) as u32;
            let v = (splitmix64(&mut state) % n as u64) as u32;
            (u, v)
        })
        .collect()
}

/// The Zipf(θ = 0.99) hot-set query mix.
fn zipf_pairs(n: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let zipf = dc_workloads::Zipf::new(n, 0.99);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (zipf.sample(&mut rng) as u32, zipf.sample(&mut rng) as u32))
        .collect()
}

/// Measures one cell: `queries` in `batch`-sized rounds through
/// `connected_many` at interleave `width`, per-query latency derived from
/// per-batch timing.
fn measure_cell(
    hdt: &Hdt,
    scenario: &str,
    width: usize,
    hints: bool,
    queries: &[(u32, u32)],
    batch: usize,
) -> LatencyCell {
    hdt.set_read_hints(hints);
    hdt.set_interleave_width(width);
    let mut histogram = LatencyHistogram::new();
    let mut out = Vec::with_capacity(batch);
    let mut total_nanos = 0u64;
    let mut connected_true = 0u64;
    for chunk in queries.chunks(batch.max(1)) {
        // `connected_many` appends; the timed region starts from an empty
        // (but capacity-warm) buffer every round.
        out.clear();
        let before = Instant::now();
        hdt.connected_many(chunk, &mut out);
        let nanos = before.elapsed().as_nanos() as u64;
        total_nanos += nanos;
        histogram.record_n(nanos / chunk.len() as u64, chunk.len() as u64);
        connected_true += out.iter().filter(|&&c| c).count() as u64;
    }
    LatencyCell {
        scenario: scenario.to_string(),
        width,
        hints,
        queries: queries.len(),
        mean_ns: total_nanos as f64 / queries.len().max(1) as f64,
        p50_ns: histogram.p50(),
        p90_ns: histogram.p90(),
        p99_ns: histogram.p99(),
        p999_ns: histogram.p999(),
        max_ns: histogram.max(),
        connected_true,
    }
}

/// Checks the interleaved engine against per-pair `connected` with hints
/// off (the Listing-1 climb) on a query prefix, for every (width, hints)
/// combination of `config`.
///
/// # Panics
/// Panics on the first disagreement — a wrong answer invalidates every
/// number the tier would report, so the bench refuses to continue.
fn check_agreement(hdt: &Hdt, config: &LatencyBenchConfig, queries: &[(u32, u32)]) -> usize {
    let prefix = &queries[..queries.len().min(AGREEMENT_PREFIX)];
    hdt.set_read_hints(false);
    let expected: Vec<bool> = prefix.iter().map(|&(u, v)| hdt.connected(u, v)).collect();
    let mut got = Vec::new();
    let mut checked = 0;
    for &hints in &[false, true] {
        hdt.set_read_hints(hints);
        for &width in &config.widths {
            hdt.set_interleave_width(width);
            got.clear();
            hdt.connected_many(prefix, &mut got);
            assert_eq!(
                expected, got,
                "interleaved (w={width}, hints={hints}) disagrees with the Listing-1 climb"
            );
            checked += prefix.len();
        }
    }
    checked
}

/// Runs the full latency tier: streamed load, differential agreement
/// check, then all 16 cells.
pub fn run_latency_bench(config: &LatencyBenchConfig) -> LatencyBaseline {
    let mut baseline = LatencyBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        ..Default::default()
    };

    // --- streamed load ------------------------------------------------------
    let hdt = Hdt::new(config.vertices);
    let started = Instant::now();
    let stream = SyntheticEdgeStream::new(config.vertices, config.extra_edges, config.seed);
    let mut reader = EdgeBatchReader::new(stream, LOAD_BATCH);
    let mut edges = 0usize;
    for batch in reader.by_ref() {
        let batch = batch.expect("the synthetic stream is well-formed by construction");
        for edge in &batch {
            hdt.add_edge_locked(edge.u(), edge.v());
        }
        edges += batch.len();
    }
    baseline.vertices = reader.num_vertices_seen();
    baseline.edges_loaded = edges;
    baseline.load_millis = started.elapsed().as_secs_f64() * 1e3;

    // --- query mixes (shared across every cell: queries never mutate) ------
    let n = baseline.vertices;
    let scenarios = [
        (
            "read-storm",
            uniform_pairs(n, config.queries_per_cell, config.seed ^ 0x5707),
        ),
        (
            "zipf-read",
            zipf_pairs(n, config.queries_per_cell, config.seed ^ 0x21F),
        ),
    ];

    // --- differential oracle before any number is trusted -------------------
    for (_, queries) in &scenarios {
        baseline.agreement_queries += check_agreement(&hdt, config, queries);
    }

    // --- the 16 cells -------------------------------------------------------
    for (name, queries) in &scenarios {
        for &hints in &[false, true] {
            for &width in &config.widths {
                baseline.cells.push(measure_cell(
                    &hdt,
                    name,
                    width,
                    hints,
                    queries,
                    config.batch,
                ));
            }
        }
    }
    // Leave the structure in its default read configuration (it is dropped
    // right after, but the symmetry keeps measure ordering honest).
    hdt.set_read_hints(true);
    baseline
}

impl LatencyBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/latency/v1\",\n");
        out.push_str(&format!("  \"git_rev\": {},\n", json_string(&self.git_rev)));
        if let Some(config) = &self.config {
            out.push_str("  \"config\": {\n");
            out.push_str(&format!("    \"vertices\": {},\n", config.vertices));
            out.push_str(&format!("    \"extra_edges\": {},\n", config.extra_edges));
            out.push_str(&format!(
                "    \"queries_per_cell\": {},\n",
                config.queries_per_cell
            ));
            out.push_str(&format!("    \"batch\": {},\n", config.batch));
            let widths: Vec<String> = config.widths.iter().map(|w| w.to_string()).collect();
            out.push_str(&format!("    \"widths\": [{}],\n", widths.join(", ")));
            out.push_str(&format!("    \"seed\": {},\n", config.seed));
            out.push_str(&format!("    \"scale\": {}\n", json_number(config.scale)));
            out.push_str("  },\n");
        }
        out.push_str("  \"load\": {\n");
        out.push_str(&format!("    \"vertices\": {},\n", self.vertices));
        out.push_str(&format!("    \"edges\": {},\n", self.edges_loaded));
        out.push_str(&format!(
            "    \"millis\": {}\n",
            json_number(self.load_millis)
        ));
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"agreement_queries\": {},\n",
            self.agreement_queries
        ));
        out.push_str("  \"gate\": {\n");
        out.push_str(&format!(
            "    \"speedup_floor\": {},\n",
            json_number(GATE_SPEEDUP_FLOOR)
        ));
        out.push_str(&format!("    \"min_vertices\": {},\n", GATE_MIN_VERTICES));
        out.push_str(&format!("    \"applies\": {},\n", self.gate_applies()));
        out.push_str(&format!(
            "    \"read_storm_cold_speedup\": {},\n",
            json_number(self.read_storm_cold_speedup().unwrap_or(0.0))
        ));
        out.push_str(&format!("    \"passes\": {}\n", self.gate_passes()));
        out.push_str("  },\n");
        out.push_str("  \"scenarios\": {");
        let mut names: Vec<&str> = self.cells.iter().map(|c| c.scenario.as_str()).collect();
        names.dedup();
        for (si, name) in names.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {{", json_string(name)));
            let cells: Vec<&LatencyCell> =
                self.cells.iter().filter(|c| c.scenario == *name).collect();
            for (ci, cell) in cells.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      \"interleaved-w{}{}\": {{ \"width\": {}, \"hints\": {}, \
                     \"queries\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                     \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"connected_true\": {} }}",
                    cell.width,
                    if cell.hints { "+hints" } else { "" },
                    cell.width,
                    cell.hints,
                    cell.queries,
                    json_number(cell.mean_ns),
                    cell.p50_ns,
                    cell.p90_ns,
                    cell.p99_ns,
                    cell.p999_ns,
                    cell.max_ns,
                    cell.connected_true
                ));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders aligned text tables, one per scenario.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Latency tier (n={}, {} edges, load {:.0} ms, rev {}) ==\n",
            self.vertices, self.edges_loaded, self.load_millis, self.git_rev
        ));
        let mut names: Vec<&str> = self.cells.iter().map(|c| c.scenario.as_str()).collect();
        names.dedup();
        for name in names {
            out.push_str(&format!("\n-- {name} --\n"));
            out.push_str(&format!(
                "{:<8}{:>7}{:>12}{:>10}{:>10}{:>10}{:>10}\n",
                "width", "hints", "mean ns", "p50", "p90", "p99", "p999"
            ));
            for cell in self.cells.iter().filter(|c| c.scenario == name) {
                out.push_str(&format!(
                    "{:<8}{:>7}{:>12.0}{:>10}{:>10}{:>10}{:>10}\n",
                    cell.width,
                    if cell.hints { "on" } else { "off" },
                    cell.mean_ns,
                    cell.p50_ns,
                    cell.p90_ns,
                    cell.p99_ns,
                    cell.p999_ns
                ));
            }
        }
        if let Some(speedup) = self.read_storm_cold_speedup() {
            out.push_str(&format!(
                "\ncold-read speedup (read-storm, hints off, best width): {:.2}x \
                 (gate {:.1}x {})\n",
                speedup,
                GATE_SPEEDUP_FLOOR,
                if self.gate_applies() {
                    "binding"
                } else {
                    "not binding below full scale"
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stream_is_one_connected_component() {
        let stream = SyntheticEdgeStream::new(500, 100, 9);
        let mut reader = EdgeBatchReader::new(stream, 64);
        let hdt = Hdt::new(500);
        let mut edges = 0;
        for batch in reader.by_ref() {
            for edge in batch.unwrap() {
                hdt.add_edge_locked(edge.u(), edge.v());
                edges += 1;
            }
        }
        assert_eq!(reader.num_vertices_seen(), 500);
        // 499 tree edges plus the surviving non-loop extras.
        assert!((499..=599).contains(&edges));
        for v in [1u32, 77, 499] {
            assert!(hdt.connected(0, v), "tree edge chain must connect {v}");
        }
    }

    #[test]
    fn latency_bench_runs_on_a_tiny_instance() {
        let config = LatencyBenchConfig {
            vertices: 4_096,
            extra_edges: 512,
            queries_per_cell: 2_000,
            batch: 64,
            widths: vec![1, 4],
            seed: 3,
            scale: 1.0,
        };
        let baseline = run_latency_bench(&config);
        assert_eq!(baseline.vertices, 4_096);
        assert!(baseline.edges_loaded >= 4_095);
        // 2 scenarios x 2 hint modes x 2 widths = 8 cells.
        assert_eq!(baseline.cells.len(), 8);
        // Agreement pass covered both hint modes and both widths per mix,
        // over the min(queries, AGREEMENT_PREFIX) prefix.
        assert_eq!(baseline.agreement_queries, 2 * 2 * 2 * 2_000);
        for cell in &baseline.cells {
            assert_eq!(cell.queries, 2_000, "w{}", cell.width);
            assert!(cell.mean_ns > 0.0, "w{}", cell.width);
            assert!(cell.p50_ns <= cell.p99_ns, "w{}", cell.width);
            assert!(cell.p99_ns <= cell.p999_ns, "w{}", cell.width);
            assert!(cell.p999_ns <= cell.max_ns, "w{}", cell.width);
        }
        // Every width answered the same queries identically: the per-
        // scenario connected-true checksum is width-invariant.
        for scenario in ["read-storm", "zipf-read"] {
            let counts: Vec<u64> = baseline
                .cells
                .iter()
                .filter(|c| c.scenario == scenario)
                .map(|c| c.connected_true)
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{scenario}: widths disagree on the connected count: {counts:?}"
            );
            // The tree spans every vertex, so all pairs are connected.
            assert_eq!(counts[0], 2_000, "{scenario}");
        }
        // The gate never binds at toy scale, but the quantity exists.
        assert!(!baseline.gate_applies());
        assert!(baseline.gate_passes());
        assert!(baseline.read_storm_cold_speedup().is_some());
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/latency/v1"));
        assert!(json.contains("read_storm_cold_speedup"));
        assert!(json.contains("interleaved-w4+hints"));
        assert!(baseline.render_text().contains("cold-read speedup"));
    }

    #[test]
    fn gate_reports_missing_measurements_as_failure() {
        let empty = LatencyBaseline::default();
        assert!(empty.read_storm_cold_speedup().is_none());
        assert!(!empty.gate_passes(), "an unmeasured run must not pass");
    }
}
