//! The observability-cost report, emitted as `BENCH_obs.json`.
//!
//! The read-storm preset (the most instrumentation-sensitive mix, since
//! lock-free reads have no lock wait to hide a counter behind) runs over
//! the paper's full algorithm in three modes:
//!
//! * **baseline** — observability off;
//! * **metrics** — the counter/gauge/span registry enabled;
//! * **metrics+tracing** — registry plus the flight recorder (per-thread
//!   event rings).
//!
//! The modes run in rounds: each round runs all three, back to back, in an
//! order that rotates from round to round, and prices each enabled mode
//! against that round's baseline. A mode reports its median throughput and
//! the median of its per-round costs with their quartiles, so a cost
//! smaller than the spread between rounds shows as unresolved instead of
//! as a best-of-N figure. Nothing is gated: enabling is allowed to
//! cost something, and the cost of the *disabled* sites is pinned by the
//! counting-allocator test `crates/obs/tests/disabled_cost.rs`, not by a
//! throughput ratio. The counter totals, span percentiles and
//! flight-recorder volume the enabled runs produced ride along, so the
//! artifact doubles as a smoke test that the instrumentation fires.

use crate::config::{quick, threads_or};
use crate::report::{document, Json};
use crate::throughput::run_streams;
use dc_batch::Variant;
use dc_workloads::{presets, Topology};

/// Scenario parameters for the observability report.
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
    /// Rounds; each runs every mode once.
    pub repeats: usize,
}

impl ObsBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`, thread
    /// count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let (n, ops_per_thread, threads, repeats) = if quick() {
            (512, 4_000, 4, 3)
        } else {
            (4_096, 40_000, 8, 21)
        };
        ObsBenchConfig {
            n,
            ops_per_thread,
            threads: threads_or(threads),
            seed: 0x0B5,
            repeats,
        }
    }
}

/// One measured mode.
#[derive(Clone, Debug)]
pub struct ModeCell {
    /// Mode name ("baseline", "metrics", "metrics+tracing").
    pub mode: String,
    /// Operations per second, median over the rounds.
    pub ops_per_sec: f64,
    /// Throughput lost versus the same round's baseline, in percent: the
    /// lower quartile, median and upper quartile over the rounds (negative
    /// = faster than baseline).
    pub overhead_percent: [f64; 3],
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
#[derive(Clone, Debug)]
pub struct ObsBaseline {
    /// The configuration the numbers were measured at.
    pub config: ObsBenchConfig,
    /// The three mode cells, baseline first.
    pub modes: Vec<ModeCell>,
    /// Nonzero counter totals over the enabled runs: each run structure's
    /// tally plus the process cells.
    pub counters: Vec<(String, u64)>,
    /// Span histograms with at least one sample.
    pub spans: Vec<SpanCell>,
    /// Flight-recorder events live in the rings after the tracing run.
    pub flight_events: usize,
    /// Total bytes ever recorded by the flight recorder.
    pub flight_bytes: u64,
}

/// The modes in measurement order, with their (metrics, tracing) flags.
const MODES: [(&str, bool, bool); 3] = [
    ("baseline", false, false),
    ("metrics", true, false),
    ("metrics+tracing", true, true),
];

/// The lower quartile, median and upper quartile of `xs` (linear
/// interpolation between order statistics).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Measures the read-storm workload in all three modes, in `repeats`
/// rounds of alternating order.
pub fn run_obs_bench(config: &ObsBenchConfig) -> ObsBaseline {
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: 4,
    };
    let graph = topo.build(config.seed);
    let workload = presets::read_storm(&graph, config.threads, config.ops_per_thread, config.seed);
    let streams = workload.flat_per_thread();
    dc_obs::reset();

    // Each run's throughput, and its structure's counters (tallies count
    // in every mode).
    let run = || {
        let structure = Variant::OurAlgorithm.build(graph.num_vertices());
        let ops = run_streams(structure.as_ref(), &workload.preload, &streams).ops_per_ms * 1e3;
        let tally = structure.tally().expect("an HDT-backed variant");
        (ops, dc_obs::Counter::ALL.map(|c| tally.get(c)))
    };
    // One unmeasured warm-up run: the very first run of the process pays
    // page faults and cold caches that none of the later cells pay.
    run();

    // ops[mode][round]
    let rounds = config.repeats.max(1);
    let mut ops = vec![Vec::with_capacity(rounds); MODES.len()];
    let mut counted = [0u64; dc_obs::Counter::COUNT];
    for round in 0..rounds {
        for k in 0..MODES.len() {
            let i = (round + k) % MODES.len();
            let (_, metrics, tracing) = MODES[i];
            dc_obs::set_metrics_enabled(metrics);
            dc_obs::set_tracing_enabled(tracing);
            let (round_ops, cells) = run();
            ops[i].push(round_ops);
            if metrics {
                for (sum, cell) in counted.iter_mut().zip(cells) {
                    *sum += cell;
                }
            }
        }
    }
    dc_obs::set_metrics_enabled(false);
    dc_obs::set_tracing_enabled(false);

    let modes = MODES
        .iter()
        .zip(&ops)
        .map(|(&(mode, _, _), mode_ops)| {
            let costs: Vec<f64> = mode_ops
                .iter()
                .zip(&ops[0])
                .map(|(o, base)| (1.0 - o / base.max(1e-9)) * 100.0)
                .collect();
            ModeCell {
                mode: mode.to_string(),
                ops_per_sec: quartiles(mode_ops)[1],
                overhead_percent: quartiles(&costs),
            }
        })
        .collect();

    let counters = dc_obs::Counter::ALL
        .iter()
        .map(|&c| {
            (
                c.name().to_string(),
                dc_obs::counter_value(c) + counted[c as usize],
            )
        })
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
        config: config.clone(),
        modes,
        counters,
        spans,
        flight_events: dc_obs::dump_events().len(),
        flight_bytes: dc_obs::flight::total_bytes_recorded(),
    }
}

impl ObsBaseline {
    /// Renders the measurement as the `dc-bench/obs/v3` document.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        document(
            "dc-bench/obs/v3",
            vec![
                (
                    "config",
                    Json::obj([
                        ("vertices", Json::int(c.n)),
                        ("ops_per_thread", Json::int(c.ops_per_thread)),
                        ("threads", Json::int(c.threads)),
                        ("seed", Json::Int(c.seed)),
                        ("paired_rounds", Json::int(c.repeats)),
                    ]),
                ),
                (
                    "modes",
                    Json::obj(self.modes.iter().map(|m| {
                        let [p25, p50, p75] = m.overhead_percent;
                        let cell = Json::obj([
                            ("ops_per_sec", Json::Num(m.ops_per_sec)),
                            ("overhead_percent", Json::Num(p50)),
                            ("overhead_p25_percent", Json::Num(p25)),
                            ("overhead_p75_percent", Json::Num(p75)),
                        ]);
                        (m.mode.as_str(), cell)
                    })),
                ),
                (
                    "counters",
                    Json::obj(
                        self.counters
                            .iter()
                            .map(|(k, v)| (k.as_str(), Json::Int(*v))),
                    ),
                ),
                (
                    "spans",
                    Json::obj(self.spans.iter().map(|s| {
                        let cell = Json::obj([
                            ("count", Json::Int(s.count)),
                            ("p50_nanos", Json::Int(s.p50_nanos)),
                            ("p99_nanos", Json::Int(s.p99_nanos)),
                        ]);
                        (s.span.as_str(), cell)
                    })),
                ),
                ("flight_events", Json::int(self.flight_events)),
                ("flight_bytes", Json::Int(self.flight_bytes)),
            ],
        )
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== Observability cost (read storm, {} threads, {} paired rounds) ==\n\
             {:<20}{:>14}{:>12}{:>22}\n",
            self.config.threads, self.config.repeats, "mode", "ops/s", "overhead %", "quartiles %"
        );
        for cell in &self.modes {
            let [p25, p50, p75] = cell.overhead_percent;
            out.push_str(&format!(
                "{:<20}{:>14.0}{:>12.2}{:>11.2} ..{:>7.2}\n",
                cell.mode, cell.ops_per_sec, p50, p25, p75
            ));
        }
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
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn obs_bench_runs_on_a_tiny_instance() {
        let config = ObsBenchConfig {
            n: 96,
            ops_per_thread: 400,
            threads: 2,
            seed: 7,
            repeats: 2,
        };
        let baseline = run_obs_bench(&config);
        let modes: Vec<&str> = baseline.modes.iter().map(|c| c.mode.as_str()).collect();
        assert_eq!(modes, ["baseline", "metrics", "metrics+tracing"]);
        assert!(baseline.modes.iter().all(|c| c.ops_per_sec > 0.0));
        // Baseline is priced against itself in every round.
        assert_eq!(baseline.modes[0].overhead_percent, [0.0; 3]);
        for cell in &baseline.modes {
            let [p25, p50, p75] = cell.overhead_percent;
            assert!(p25 <= p50 && p50 <= p75, "{cell:?}");
        }
        // The enabled runs must have actually fired the instrumentation.
        assert!(
            baseline.counters.iter().any(|(n, _)| n == "hdt_additions"),
            "metrics run recorded nothing: {:?}",
            baseline.counters
        );
        assert!(baseline.flight_bytes > 0, "tracing run recorded no events");
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/obs/v3"));
        assert!(json.contains("\"overhead_p75_percent\""));
        assert!(json.contains("\"metrics+tracing\""));
        assert!(baseline.render_text().contains("Observability cost"));
    }
}
