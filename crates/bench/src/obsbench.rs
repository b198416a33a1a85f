//! The observability-overhead benchmark, emitted as `BENCH_obs.json`.
//!
//! `dc_obs` promises that *disabled* observability costs one relaxed load
//! per recording site — cheap enough to ship compiled-in. This tier holds
//! the crate to that promise: the read-storm preset (the most
//! instrumentation-sensitive mix, since lock-free reads have no lock wait
//! to hide a counter behind) runs over the paper's full algorithm in four
//! modes:
//!
//! * **baseline** — observability never touched (flags off since process
//!   start);
//! * **metrics** — the counter/gauge/span registry enabled;
//! * **metrics+tracing** — registry plus the flight recorder (per-thread
//!   event rings);
//! * **disabled** — flags switched back off after the enabled runs, so the
//!   cell measures the steady disabled state the gate is about (rings
//!   allocated, branch predictors trained on the flag).
//!
//! Each mode's reported throughput is best-of-`repeats`. The **gate** is
//! the disabled cell's overhead versus baseline, and it is computed from
//! *paired* repeats, not from the two maxima: within each repeat cycle the
//! four modes run back-to-back, so the baseline and disabled runs of one
//! cycle share their scheduler/frequency weather and the common-mode noise
//! cancels in the ratio. The gate value is the **minimum paired overhead
//! across cycles** — tripwire semantics: a real regression (a disabled
//! path that allocates, a counter that became a CAS loop) slows *every*
//! cycle's disabled run, so even the most favorable pair shows it;
//! one-sided scheduler noise cannot produce a false failure unless it hits
//! all cycles at once. The ceiling is
//! [`GATE_MAX_DISABLED_OVERHEAD_PERCENT`]. The enabled cells are reported
//! (not gated — enabling is allowed to cost something) together with the
//! counter totals, span percentiles and flight-recorder volume the run
//! produced, so the artifact doubles as a smoke test that the
//! instrumentation actually fires.

use crate::report::{json_number, json_string};
use dc_batch::Variant;
use dc_workloads::{presets, GeneratedWorkload, Op, Topology};
use dynconn::DynamicConnectivity;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Ceiling on the disabled-mode overhead versus baseline, in percent.
pub const GATE_MAX_DISABLED_OVERHEAD_PERCENT: f64 = 3.0;

/// Scenario parameters for the observability benchmark.
#[derive(Clone, Debug)]
pub struct ObsBenchConfig {
    /// Vertex budget for the power-law universe.
    pub n: usize,
    /// Per-thread operation budget.
    pub ops_per_thread: usize,
    /// Concurrent threads.
    pub threads: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Repetitions; best throughput per mode is kept. Kept high (each
    /// run is ~0.1s) because the gate compares two best-of maxima: with
    /// few samples, scheduler noise between the baseline and disabled
    /// maxima dwarfs the one-relaxed-load cost being measured.
    pub repeats: usize,
}

impl ObsBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`, thread
    /// count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut config = if quick {
            ObsBenchConfig {
                n: 512,
                ops_per_thread: 4_000,
                threads: 4,
                seed: 0x0B5,
                repeats: 10,
            }
        } else {
            ObsBenchConfig {
                n: 4_096,
                ops_per_thread: 40_000,
                threads: 8,
                seed: 0x0B5,
                repeats: 12,
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

/// One measured mode.
#[derive(Clone, Debug)]
pub struct ModeCell {
    /// Mode name ("baseline", "disabled", "metrics", "metrics+tracing").
    pub mode: String,
    /// Operations per second (best of `repeats`).
    pub ops_per_sec: f64,
    /// Throughput lost versus baseline, in percent (negative = faster,
    /// i.e. noise).
    pub overhead_percent: f64,
}

/// One span histogram observed during the enabled runs.
#[derive(Clone, Debug)]
pub struct SpanCell {
    /// Span name (from [`dc_obs::SpanId::name`]).
    pub span: String,
    /// Samples recorded.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
}

/// The full observability measurement, serialized as `BENCH_obs.json`.
#[derive(Clone, Debug, Default)]
pub struct ObsBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<ObsBenchConfig>,
    /// The four mode cells, baseline first.
    pub modes: Vec<ModeCell>,
    /// The gate value: disabled-mode overhead versus baseline in percent,
    /// from the most favorable *paired* repeat cycle (see module docs).
    pub disabled_overhead_percent: f64,
    /// Nonzero counter totals after the enabled runs.
    pub counters: Vec<(String, u64)>,
    /// Span histograms with at least one sample.
    pub spans: Vec<SpanCell>,
    /// Flight-recorder events live in the rings after the tracing run.
    pub flight_events: usize,
    /// Total bytes ever recorded by the flight recorder.
    pub flight_bytes: u64,
}

impl ObsBaseline {
    /// Whether the disabled-overhead gate passes.
    pub fn gate_passes(&self) -> bool {
        self.disabled_overhead_percent <= GATE_MAX_DISABLED_OVERHEAD_PERCENT
    }
}

/// Preloads and runs the workload's phases across threads, returning ops/s
/// over the phase execution (preload excluded).
fn run_workload(structure: &dyn DynamicConnectivity, workload: &GeneratedWorkload) -> f64 {
    for edge in &workload.preload {
        structure.add_edge(edge.u(), edge.v());
    }
    let mut operations = 0usize;
    let start = Instant::now();
    for phase in &workload.phases {
        operations += phase.total_operations();
        let start_flag = AtomicBool::new(false);
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
                handle.join().expect("obs bench worker panicked");
            }
        });
    }
    operations as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The measurement order within a repeat: baseline while the flags have
/// never been on, then the enabled modes, then disabled — so the disabled
/// cell measures the state a production binary returns to after a
/// diagnosis session.
const MODES: [&str; 4] = ["baseline", "metrics", "metrics+tracing", "disabled"];

fn set_mode(mode: &str) {
    match mode {
        "baseline" | "disabled" => {
            dc_obs::set_metrics_enabled(false);
            dc_obs::set_tracing_enabled(false);
        }
        "metrics" => {
            dc_obs::set_metrics_enabled(true);
            dc_obs::set_tracing_enabled(false);
        }
        "metrics+tracing" => {
            dc_obs::set_metrics_enabled(true);
            dc_obs::set_tracing_enabled(true);
        }
        other => unreachable!("unknown obs bench mode {other}"),
    }
}

/// Measures the read-storm workload in all four modes, best-of-`repeats`.
pub fn run_obs_bench(config: &ObsBenchConfig) -> ObsBaseline {
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: 4,
    };
    let graph = topo.build(config.seed);
    let workload = presets::read_storm(&graph, config.threads, config.ops_per_thread, config.seed);
    dc_obs::reset();

    // One unmeasured warm-up run: the very first run of the process pays
    // page faults and cold caches that none of the later cells pay, and
    // the gate compares cells against each other.
    {
        set_mode("baseline");
        let structure = Variant::OurAlgorithm.build(graph.num_vertices());
        run_workload(structure.as_ref(), &workload);
    }

    let mut best = [0.0f64; MODES.len()];
    // The most favorable baseline-vs-disabled pair across repeat cycles
    // (see the module docs: paired so common-mode noise cancels, min so
    // only a regression visible in every cycle trips the gate).
    let mut disabled_overhead_percent = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let mut cycle = [0.0f64; MODES.len()];
        for (i, mode) in MODES.iter().enumerate() {
            set_mode(mode);
            let structure = Variant::OurAlgorithm.build(graph.num_vertices());
            let ops_per_sec = run_workload(structure.as_ref(), &workload);
            cycle[i] = ops_per_sec;
            best[i] = best[i].max(ops_per_sec);
        }
        let paired = (1.0 - cycle[MODES.len() - 1] / cycle[0].max(1e-9)) * 100.0;
        disabled_overhead_percent = disabled_overhead_percent.min(paired);
    }
    dc_obs::set_metrics_enabled(false);
    dc_obs::set_tracing_enabled(false);

    let baseline_ops = best[0].max(1e-9);
    let overhead = |ops: f64| (1.0 - ops / baseline_ops) * 100.0;
    let modes = MODES
        .iter()
        .zip(best)
        .map(|(mode, ops_per_sec)| ModeCell {
            mode: mode.to_string(),
            ops_per_sec,
            overhead_percent: overhead(ops_per_sec),
        })
        .collect::<Vec<_>>();

    let snapshot = dc_obs::ObsSnapshot::gather();
    let counters = dc_obs::Counter::ALL
        .iter()
        .map(|&c| (c.name().to_string(), snapshot.counter(c)))
        .filter(|(_, v)| *v > 0)
        .collect();
    let spans = dc_obs::SpanId::ALL
        .iter()
        .map(|&id| (id, dc_obs::span_snapshot(id)))
        .filter(|(_, h)| h.count() > 0)
        .map(|(id, h)| SpanCell {
            span: id.name().to_string(),
            count: h.count(),
            p50_nanos: h.p50(),
            p99_nanos: h.p99(),
        })
        .collect();

    ObsBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        modes,
        disabled_overhead_percent,
        counters,
        spans,
        flight_events: dc_obs::dump_events().len(),
        flight_bytes: dc_obs::flight::total_bytes_recorded(),
    }
}

impl ObsBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/obs/v1\",\n");
        out.push_str(&format!("  \"git_rev\": {},\n", json_string(&self.git_rev)));
        if let Some(config) = &self.config {
            out.push_str("  \"config\": {\n");
            out.push_str(&format!("    \"vertices\": {},\n", config.n));
            out.push_str(&format!(
                "    \"ops_per_thread\": {},\n",
                config.ops_per_thread
            ));
            out.push_str(&format!("    \"threads\": {},\n", config.threads));
            out.push_str(&format!("    \"seed\": {},\n", config.seed));
            out.push_str(&format!("    \"repeats_best_of\": {}\n", config.repeats));
            out.push_str("  },\n");
        }
        out.push_str("  \"modes\": {");
        for (i, cell) in self.modes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{ \"ops_per_sec\": {}, \"overhead_percent\": {} }}",
                json_string(&cell.mode),
                json_number(cell.ops_per_sec),
                json_number(cell.overhead_percent)
            ));
        }
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"disabled_overhead_percent\": {},\n",
            json_number(self.disabled_overhead_percent)
        ));
        out.push_str(&format!(
            "  \"gate_max_disabled_overhead_percent\": {},\n",
            json_number(GATE_MAX_DISABLED_OVERHEAD_PERCENT)
        ));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(name), value));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"spans\": {");
        for (i, cell) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{ \"count\": {}, \"p50_nanos\": {}, \"p99_nanos\": {} }}",
                json_string(&cell.span),
                cell.count,
                cell.p50_nanos,
                cell.p99_nanos
            ));
        }
        out.push_str("\n  },\n");
        out.push_str(&format!("  \"flight_events\": {},\n", self.flight_events));
        out.push_str(&format!("  \"flight_bytes\": {}\n", self.flight_bytes));
        out.push_str("}\n");
        out
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let threads = self.config.as_ref().map(|c| c.threads).unwrap_or(0);
        out.push_str(&format!(
            "== Observability overhead (read storm, {} threads, rev {}) ==\n",
            threads, self.git_rev
        ));
        out.push_str(&format!(
            "{:<20}{:>14}{:>12}\n",
            "mode", "ops/s", "overhead %"
        ));
        for cell in &self.modes {
            out.push_str(&format!(
                "{:<20}{:>14.0}{:>12.2}\n",
                cell.mode, cell.ops_per_sec, cell.overhead_percent
            ));
        }
        out.push_str(&format!(
            "paired disabled overhead (gate value): {:.2}%\n",
            self.disabled_overhead_percent
        ));
        out.push_str(&format!(
            "flight recorder: {} events live, {} bytes recorded\n",
            self.flight_events, self.flight_bytes
        ));
        for cell in &self.spans {
            out.push_str(&format!(
                "span {:<24} n={:<8} p50={}ns p99={}ns\n",
                cell.span, cell.count, cell.p50_nanos, cell.p99_nanos
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bench_runs_on_a_tiny_instance() {
        let config = ObsBenchConfig {
            n: 96,
            ops_per_thread: 400,
            threads: 2,
            seed: 7,
            repeats: 1,
        };
        let baseline = run_obs_bench(&config);
        let modes: Vec<&str> = baseline.modes.iter().map(|c| c.mode.as_str()).collect();
        assert_eq!(
            modes,
            ["baseline", "metrics", "metrics+tracing", "disabled"]
        );
        assert!(baseline.modes.iter().all(|c| c.ops_per_sec > 0.0));
        // The enabled runs must have actually fired the instrumentation.
        assert!(
            baseline.counters.iter().any(|(n, _)| n == "hdt_additions"),
            "metrics run recorded nothing: {:?}",
            baseline.counters
        );
        assert!(baseline.flight_bytes > 0, "tracing run recorded no events");
        // No gate assertion here — the tiny instance is far too noisy; the
        // gate is enforced by the release-mode summary binary in CI.
        assert!(baseline.disabled_overhead_percent.is_finite());
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/obs/v1"));
        assert!(json.contains("disabled_overhead_percent"));
        assert!(json.contains("\"metrics+tracing\""));
        assert!(baseline.render_text().contains("Observability overhead"));
    }
}
