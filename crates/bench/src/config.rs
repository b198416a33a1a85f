//! Benchmark configuration shared by every figure/table binary and the
//! `summary` tiers.
//!
//! The paper's experiments run on a 144-hardware-thread server with graphs of
//! up to 91M edges; reproduction hosts are much smaller, so every dimension
//! (graph scale, operations per thread, thread counts) is configurable and
//! defaults to a size that completes in minutes on a laptop.  Environment
//! variables override the defaults so CI can run a quick smoke pass
//! (`DC_BENCH_QUICK=1`, read by [`quick`]) while a full run uses larger
//! settings.

use dc_graph::ScaledCatalog;

/// Configuration for the throughput benchmarks.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Vertex budget for the Table 1 (small) graphs.
    pub small_vertices: usize,
    /// Vertex budget for the Table 2 (large) graphs.
    pub large_vertices: usize,
    /// Operations performed by each thread in a measurement.
    pub ops_per_thread: usize,
    /// Thread counts swept for the small graphs (the paper uses
    /// 1..144; we default to what the host offers).
    pub thread_counts: Vec<usize>,
    /// Thread count used for the large graphs ("maximum parallelism").
    pub max_threads: usize,
    /// Random seed.
    pub seed: u64,
}

impl BenchConfig {
    /// Builds the configuration from the environment.
    ///
    /// * `DC_BENCH_QUICK=1` — tiny sizes for smoke testing.
    /// * `DC_BENCH_SMALL_VERTICES`, `DC_BENCH_LARGE_VERTICES`,
    ///   `DC_BENCH_OPS`, `DC_BENCH_THREADS` (comma-separated) override
    ///   individual knobs.
    pub fn from_env() -> Self {
        let hw_threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let mut config = if quick() {
            BenchConfig {
                small_vertices: 2_000,
                large_vertices: 8_000,
                ops_per_thread: 5_000,
                thread_counts: dedup_sorted(vec![1, 2, hw_threads.max(2)]),
                max_threads: hw_threads.max(2),
                seed: 0xDC0DE,
            }
        } else {
            BenchConfig {
                small_vertices: 20_000,
                large_vertices: 100_000,
                ops_per_thread: 50_000,
                thread_counts: default_thread_sweep(hw_threads),
                max_threads: (hw_threads * 2).max(2),
                seed: 0xDC0DE,
            }
        };
        if let Ok(v) = std::env::var("DC_BENCH_SMALL_VERTICES") {
            if let Ok(n) = v.parse() {
                config.small_vertices = n;
            }
        }
        if let Ok(v) = std::env::var("DC_BENCH_LARGE_VERTICES") {
            if let Ok(n) = v.parse() {
                config.large_vertices = n;
            }
        }
        if let Ok(v) = std::env::var("DC_BENCH_OPS") {
            if let Ok(n) = v.parse() {
                config.ops_per_thread = n;
            }
        }
        let threads = thread_list();
        if let Some(&max) = threads.iter().max() {
            config.max_threads = max;
            config.thread_counts = dedup_sorted(threads);
        }
        config
    }

    /// The graph catalog scaled according to this configuration.
    pub fn catalog(&self) -> ScaledCatalog {
        ScaledCatalog {
            small_vertices: self.small_vertices,
            large_vertices: self.large_vertices,
            seed: self.seed,
        }
    }
}

/// Whether `DC_BENCH_QUICK` asks for the small smoke-test sizes (set and
/// not `0`).
pub fn quick() -> bool {
    std::env::var("DC_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The thread counts listed in `DC_BENCH_THREADS` (comma-separated;
/// malformed and zero entries are dropped, so the list may be empty).
pub fn thread_list() -> Vec<usize> {
    std::env::var("DC_BENCH_THREADS")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&t| t >= 1)
                .collect()
        })
        .unwrap_or_default()
}

/// A tier's client thread count: the largest `DC_BENCH_THREADS` entry, or
/// `default` when none is given.
pub fn threads_or(default: usize) -> usize {
    thread_list().into_iter().max().unwrap_or(default)
}

/// The global scale multiplier from `DC_BENCH_SCALE`.
///
/// Benchmark tiers that target a fixed problem size (notably the huge-graph
/// latency tier, which defaults to n = 10M vertices) multiply their size by
/// this factor, so `DC_BENCH_SCALE=0.01` yields a fast sanity run and
/// `DC_BENCH_SCALE=5` stretches the same cells to n = 50M.  Unset, empty or
/// malformed values fall back to 1.0; finite values are clamped to
/// `[0.0001, 100.0]` so a typo cannot request a zero-sized or
/// memory-exhausting run.
pub fn bench_scale() -> f64 {
    parse_scale(std::env::var("DC_BENCH_SCALE").ok().as_deref())
}

/// Pure parsing/clamping behind [`bench_scale`], separated so it can be
/// tested without mutating process-global environment state.
pub fn parse_scale(raw: Option<&str>) -> f64 {
    const MIN_SCALE: f64 = 0.0001;
    const MAX_SCALE: f64 = 100.0;
    match raw.and_then(|s| s.trim().parse::<f64>().ok()) {
        Some(v) if v.is_finite() => v.clamp(MIN_SCALE, MAX_SCALE),
        _ => 1.0,
    }
}

fn default_thread_sweep(hw: usize) -> Vec<usize> {
    // Mirror the paper's 1,2,4,...,144 sweep, truncated to the host (with one
    // oversubscribed point to show the saturation tail).
    let mut sweep = vec![1usize];
    let mut t = 2;
    while t <= hw {
        sweep.push(t);
        t *= 2;
    }
    if *sweep.last().unwrap() != hw {
        sweep.push(hw);
    }
    sweep.push(hw * 2);
    dedup_sorted(sweep)
}

fn dedup_sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_is_sorted_and_unique() {
        for hw in [1, 2, 4, 6, 144] {
            let sweep = default_thread_sweep(hw);
            let mut sorted = sweep.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sweep, sorted);
            assert_eq!(sweep[0], 1);
            assert!(sweep.last().copied().unwrap() >= hw);
        }
    }

    #[test]
    fn scale_parsing_clamps_and_defaults() {
        // Missing / empty / garbage → the neutral 1.0.
        assert_eq!(parse_scale(None), 1.0);
        assert_eq!(parse_scale(Some("")), 1.0);
        assert_eq!(parse_scale(Some("fast")), 1.0);
        assert_eq!(parse_scale(Some("NaN")), 1.0);
        assert_eq!(parse_scale(Some("inf")), 1.0);
        // Well-formed values pass through (whitespace tolerated).
        assert_eq!(parse_scale(Some("0.5")), 0.5);
        assert_eq!(parse_scale(Some(" 2 ")), 2.0);
        // Out-of-range values clamp instead of exploding the run.
        assert_eq!(parse_scale(Some("0")), 0.0001);
        assert_eq!(parse_scale(Some("-3")), 0.0001);
        assert_eq!(parse_scale(Some("1e9")), 100.0);
    }

    #[test]
    fn catalog_respects_config() {
        let config = BenchConfig {
            small_vertices: 500,
            large_vertices: 1000,
            ops_per_thread: 10,
            thread_counts: vec![1],
            max_threads: 1,
            seed: 7,
        };
        let cat = config.catalog();
        assert_eq!(cat.small_vertices, 500);
        assert_eq!(cat.large_vertices, 1000);
    }
}
