//! The fault-harness benchmark, emitted as `BENCH_faults.json`.
//!
//! `dc_faults` promises that its injection points are *zero-cost when
//! disabled* — one load of the instance's schedule slot per check site —
//! cheap enough to leave compiled into the engine's hot paths
//! (`DESIGN.md` §13). This tier holds the harness to that promise, and
//! measures the cost of the failure-path door the points exist to
//! exercise:
//!
//! * **disabled-injection overhead** — the batch engine runs a mixed
//!   adapter workload (every op crosses the `IntakeStall` check, every
//!   batch the two leader-panic checks, every link the `ArenaAlloc`
//!   check) in three modes, each on a fresh engine: **baseline** (no
//!   schedule attached), **armed** (an empty schedule attached — every
//!   check pays the slow path but nothing ever fires) and **disabled** (no
//!   schedule again, built after the armed run — the state a production
//!   binary is permanently in). The **gate**
//!   is the disabled cell's overhead versus baseline, computed exactly as
//!   in `BENCH_obs.json`: within each repeat cycle the three modes run
//!   back-to-back so common-mode noise cancels in the ratio, and the gate
//!   value is the minimum paired overhead across cycles — only a
//!   regression visible in *every* cycle trips it. Ceiling:
//!   [`GATE_MAX_DISABLED_OVERHEAD_PERCENT`]. The armed cell is reported,
//!   not gated — arming is a diagnosis session, it is allowed to cost
//!   something.
//!
//! * **recovery-from-poison latency** — a durable store is populated, its
//!   engine is poisoned by an injected leader panic
//!   ([`InjectionPoint::LeaderPanicBeforeApply`]), and the wall time of
//!   [`DurableConnectivity::rebuild`] — the typed door out of the poisoned
//!   state, close writer → recover from the log → fresh engine — is
//!   measured over `recovery_repeats` poison/rebuild cycles (best and
//!   median reported). Not gated: the cell exists to track the trajectory
//!   of the recovery path, and as a release-mode smoke that the
//!   poison → rebuild → agree contract holds outside the unit tests.

use crate::report::{json_number, json_string};
use dc_durable::{DurableConnectivity, DurableOptions};
use dc_faults::{ChaosConfig, ChaosSchedule, InjectionPoint};
use dc_workloads::{presets, GeneratedWorkload, Op, Topology};
use dynconn::DynamicConnectivity;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ceiling on the disabled-injection overhead versus baseline, in percent.
pub const GATE_MAX_DISABLED_OVERHEAD_PERCENT: f64 = 3.0;

/// Scenario parameters for the fault-harness benchmark.
#[derive(Clone, Debug)]
pub struct FaultsBenchConfig {
    /// Vertex budget for the power-law universe of the overhead workload.
    pub n: usize,
    /// Per-thread operation budget of the overhead workload.
    pub ops_per_thread: usize,
    /// Concurrent threads driving the engine's adapter doors.
    pub threads: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Repeat cycles; best throughput per mode is kept and the gate takes
    /// the most favorable *paired* cycle (see module docs).
    pub repeats: usize,
    /// Acked chain edges written to the durable store before poisoning it.
    pub recovery_edges: usize,
    /// Poison → rebuild cycles measured for the recovery cell.
    pub recovery_repeats: usize,
}

impl FaultsBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`, thread
    /// count overridable via `DC_BENCH_THREADS`).
    pub fn from_env() -> Self {
        let quick = std::env::var("DC_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let mut config = if quick {
            FaultsBenchConfig {
                n: 512,
                ops_per_thread: 4_000,
                threads: 4,
                seed: 0xFA07,
                repeats: 10,
                recovery_edges: 256,
                recovery_repeats: 3,
            }
        } else {
            FaultsBenchConfig {
                n: 4_096,
                ops_per_thread: 40_000,
                threads: 8,
                seed: 0xFA07,
                repeats: 12,
                recovery_edges: 2_048,
                recovery_repeats: 5,
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

/// One measured injection-check mode.
#[derive(Clone, Debug)]
pub struct FaultModeCell {
    /// Mode name ("baseline", "armed", "disabled").
    pub mode: String,
    /// Operations per second (best of `repeats`).
    pub ops_per_sec: f64,
    /// Throughput lost versus baseline, in percent (negative = faster,
    /// i.e. noise).
    pub overhead_percent: f64,
}

/// The recovery-from-poison measurement.
#[derive(Clone, Debug, Default)]
pub struct RecoveryCell {
    /// Vertices in the poisoned store.
    pub vertices: usize,
    /// Acked (logged) edges at the moment of the poisoning panic.
    pub acked_edges: usize,
    /// Fastest poison → rebuilt wall time, milliseconds.
    pub rebuild_ms_best: f64,
    /// Median poison → rebuilt wall time, milliseconds.
    pub rebuild_ms_median: f64,
    /// Committed batches the rebuild replayed from the WAL tail.
    pub batches_replayed: u64,
    /// `covered_seq` of the checkpoint that seeded the rebuild (0 = whole
    /// log replayed); together with `batches_replayed` this accounts for
    /// every acked edge.
    pub checkpoint_seq: u64,
    /// Poison/rebuild cycles measured.
    pub repeats: usize,
}

/// The full fault-harness measurement, serialized as `BENCH_faults.json`.
#[derive(Clone, Debug, Default)]
pub struct FaultsBaseline {
    /// Short git revision.
    pub git_rev: String,
    /// The configuration the numbers were measured at.
    pub config: Option<FaultsBenchConfig>,
    /// The three mode cells, baseline first.
    pub modes: Vec<FaultModeCell>,
    /// The gate value: disabled-injection overhead versus baseline in
    /// percent, from the most favorable *paired* repeat cycle.
    pub disabled_overhead_percent: f64,
    /// Injection checks the armed runs actually crossed, per point — a
    /// smoke that the measured workload really exercises the check sites.
    pub armed_checks: Vec<(String, u64)>,
    /// The recovery-from-poison cell.
    pub recovery: RecoveryCell,
}

impl FaultsBaseline {
    /// Whether the disabled-overhead gate passes.
    pub fn gate_passes(&self) -> bool {
        self.disabled_overhead_percent <= GATE_MAX_DISABLED_OVERHEAD_PERCENT
    }
}

/// Preloads and runs the workload's phases across threads against the batch
/// engine's trait doors, returning ops/s over the phase execution (preload
/// excluded). The adapter path crosses every hot injection check: the
/// intake stall per op, the two leader-panic points per batch, the arena
/// point per link.
fn run_engine_workload(engine: &dc_batch::BatchEngine, workload: &GeneratedWorkload) -> f64 {
    for edge in &workload.preload {
        engine.add_edge(edge.u(), edge.v());
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
                                Op::Add(u, v) => engine.add_edge(u, v),
                                Op::Remove(u, v) => engine.remove_edge(u, v),
                                Op::Query(u, v) => {
                                    std::hint::black_box(engine.connected(u, v));
                                }
                            }
                        }
                    })
                })
                .collect();
            start_flag.store(true, Ordering::Release);
            for handle in handles {
                handle.join().expect("faults bench worker panicked");
            }
        });
    }
    operations as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The measurement order within a repeat: baseline on an engine with no
/// schedule, then armed, then disabled (a fresh engine with no schedule) —
/// so the disabled cell measures the state a binary returns to after a
/// chaos session (caches and branch predictors trained on the armed run).
const MODES: [&str; 3] = ["baseline", "armed", "disabled"];

/// An armed-but-inert schedule: every check takes the slow path, nothing
/// ever fires (zero faults planned at every point).
fn empty_schedule(seed: u64) -> Arc<ChaosSchedule> {
    Arc::new(ChaosSchedule::from_config(ChaosConfig {
        seed,
        faults_per_point: [0; InjectionPoint::COUNT],
        ..ChaosConfig::default()
    }))
}

/// One fault of `point`, scheduled on the very first injection check.
fn one_shot(point: InjectionPoint) -> Arc<ChaosSchedule> {
    let mut faults = [0u32; InjectionPoint::COUNT];
    faults[point as usize] = 1;
    Arc::new(ChaosSchedule::from_config(ChaosConfig {
        horizon: 1,
        faults_per_point: faults,
        ..ChaosConfig::default()
    }))
}

/// The poisoning panics below are deliberate; keep the default hook's
/// backtraces for everything else.
fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.as_str())
                        .unwrap_or("")
                });
            if !msg.contains("chaos injection") {
                default(info);
            }
        }));
    });
}

/// Populates a durable store, poisons its engine with an injected leader
/// panic, and measures the wall time of [`DurableConnectivity::rebuild`].
fn measure_recovery(config: &FaultsBenchConfig) -> RecoveryCell {
    silence_chaos_panics();
    let vertices = config.recovery_edges + 8;
    let mut rebuild_ms: Vec<f64> = Vec::with_capacity(config.recovery_repeats.max(1));
    let mut batches_replayed = 0u64;
    let mut checkpoint_seq = 0u64;
    for cycle in 0..config.recovery_repeats.max(1) {
        let dir = std::env::temp_dir().join(format!(
            "dc-bench-faults-recovery-{}-{cycle}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableConnectivity::create(&dir, vertices, DurableOptions::default())
            .expect("create durable store for the recovery cell");
        for u in 0..config.recovery_edges as u32 {
            store.add_edge(u, u + 1);
        }

        store
            .engine()
            .attach_chaos(one_shot(InjectionPoint::LeaderPanicBeforeApply));
        let died = store.engine().try_apply_batch(&[dynconn::BatchOp::Add(
            config.recovery_edges as u32 + 2,
            config.recovery_edges as u32 + 3,
        )]);
        assert_eq!(
            died,
            Err(dc_batch::EngineError::Poisoned),
            "the chaos point must poison the engine"
        );

        let start = Instant::now();
        let (rebuilt, report) = store
            .rebuild()
            .expect("the log must stay replayable after an engine poison");
        rebuild_ms.push(start.elapsed().as_secs_f64() * 1e3);
        batches_replayed = report.batches_replayed;
        checkpoint_seq = report.checkpoint_seq;
        assert!(
            rebuilt.connected(0, config.recovery_edges as u32),
            "rebuilt store lost the acked chain"
        );
        drop(rebuilt);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rebuild_ms.sort_by(|a, b| a.total_cmp(b));
    RecoveryCell {
        vertices,
        acked_edges: config.recovery_edges,
        rebuild_ms_best: rebuild_ms.first().copied().unwrap_or(0.0),
        rebuild_ms_median: rebuild_ms.get(rebuild_ms.len() / 2).copied().unwrap_or(0.0),
        batches_replayed,
        checkpoint_seq,
        repeats: rebuild_ms.len(),
    }
}

/// Measures the disabled-injection overhead and the recovery-from-poison
/// latency, best-of-`repeats`.
pub fn run_faults_bench(config: &FaultsBenchConfig) -> FaultsBaseline {
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: 4,
    };
    let graph = topo.build(config.seed);
    let workload = presets::read_storm(&graph, config.threads, config.ops_per_thread, config.seed);

    // One unmeasured warm-up run: the first run of the process pays page
    // faults and cold caches none of the later cells pay, and the gate
    // compares cells against each other.
    {
        let engine = dc_batch::BatchEngine::new(graph.num_vertices());
        run_engine_workload(&engine, &workload);
    }

    let armed = empty_schedule(config.seed);
    let mut best = [0.0f64; MODES.len()];
    // The most favorable baseline-vs-disabled pair across repeat cycles
    // (paired so common-mode noise cancels, min so only a regression
    // visible in every cycle trips the gate).
    let mut disabled_overhead_percent = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let mut cycle = [0.0f64; MODES.len()];
        for (i, mode) in MODES.iter().enumerate() {
            let engine = dc_batch::BatchEngine::new(graph.num_vertices());
            if *mode == "armed" {
                engine.attach_chaos(Arc::clone(&armed));
            }
            let ops_per_sec = run_engine_workload(&engine, &workload);
            cycle[i] = ops_per_sec;
            best[i] = best[i].max(ops_per_sec);
        }
        let paired = (1.0 - cycle[MODES.len() - 1] / cycle[0].max(1e-9)) * 100.0;
        disabled_overhead_percent = disabled_overhead_percent.min(paired);
    }

    let baseline_ops = best[0].max(1e-9);
    let overhead = |ops: f64| (1.0 - ops / baseline_ops) * 100.0;
    let modes = MODES
        .iter()
        .zip(best)
        .map(|(mode, ops_per_sec)| FaultModeCell {
            mode: mode.to_string(),
            ops_per_sec,
            overhead_percent: overhead(ops_per_sec),
        })
        .collect::<Vec<_>>();
    let armed_checks = InjectionPoint::ALL
        .iter()
        .map(|&p| (p.name().to_string(), armed.checks(p)))
        .filter(|(_, v)| *v > 0)
        .collect();

    FaultsBaseline {
        git_rev: crate::ettbench::git_rev(),
        config: Some(config.clone()),
        modes,
        disabled_overhead_percent,
        armed_checks,
        recovery: measure_recovery(config),
    }
}

impl FaultsBaseline {
    /// Renders the measurement as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"dc-bench/faults/v1\",\n");
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
            out.push_str(&format!("    \"repeats_best_of\": {},\n", config.repeats));
            out.push_str(&format!(
                "    \"recovery_edges\": {},\n",
                config.recovery_edges
            ));
            out.push_str(&format!(
                "    \"recovery_repeats\": {}\n",
                config.recovery_repeats
            ));
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
        out.push_str("  \"armed_checks\": {");
        for (i, (name, value)) in self.armed_checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(name), value));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"recovery\": {\n");
        out.push_str(&format!("    \"vertices\": {},\n", self.recovery.vertices));
        out.push_str(&format!(
            "    \"acked_edges\": {},\n",
            self.recovery.acked_edges
        ));
        out.push_str(&format!(
            "    \"rebuild_ms_best\": {},\n",
            json_number(self.recovery.rebuild_ms_best)
        ));
        out.push_str(&format!(
            "    \"rebuild_ms_median\": {},\n",
            json_number(self.recovery.rebuild_ms_median)
        ));
        out.push_str(&format!(
            "    \"batches_replayed\": {},\n",
            self.recovery.batches_replayed
        ));
        out.push_str(&format!(
            "    \"checkpoint_seq\": {},\n",
            self.recovery.checkpoint_seq
        ));
        out.push_str(&format!("    \"repeats\": {}\n", self.recovery.repeats));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let threads = self.config.as_ref().map(|c| c.threads).unwrap_or(0);
        out.push_str(&format!(
            "== Fault-harness overhead (batch-engine read storm, {} threads, rev {}) ==\n",
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
        for (name, checks) in &self.armed_checks {
            out.push_str(&format!("armed checks {:<24} {}\n", name, checks));
        }
        out.push_str(&format!(
            "recovery from poison: best {:.2} ms, median {:.2} ms \
             ({} acked edges, checkpoint seq {}, {} batches replayed, {} cycles)\n",
            self.recovery.rebuild_ms_best,
            self.recovery.rebuild_ms_median,
            self.recovery.acked_edges,
            self.recovery.checkpoint_seq,
            self.recovery.batches_replayed,
            self.recovery.repeats
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_bench_runs_on_a_tiny_instance() {
        let config = FaultsBenchConfig {
            n: 96,
            ops_per_thread: 400,
            threads: 2,
            seed: 7,
            repeats: 1,
            recovery_edges: 24,
            recovery_repeats: 1,
        };
        let baseline = run_faults_bench(&config);
        let modes: Vec<&str> = baseline.modes.iter().map(|c| c.mode.as_str()).collect();
        assert_eq!(modes, ["baseline", "armed", "disabled"]);
        assert!(baseline.modes.iter().all(|c| c.ops_per_sec > 0.0));
        // The armed run must have actually crossed the engine's check
        // sites — otherwise the overhead cells measure nothing.
        assert!(
            baseline
                .armed_checks
                .iter()
                .any(|(name, _)| name == "intake_stall"),
            "armed run crossed no intake checks: {:?}",
            baseline.armed_checks
        );
        assert!(baseline.recovery.rebuild_ms_best > 0.0);
        assert_eq!(baseline.recovery.repeats, 1);
        // No gate assertion here — the tiny instance is far too noisy; the
        // gate is enforced by the release-mode summary binary in CI.
        assert!(baseline.disabled_overhead_percent.is_finite());
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/faults/v1"));
        assert!(json.contains("disabled_overhead_percent"));
        assert!(json.contains("rebuild_ms_best"));
        assert!(baseline.render_text().contains("Fault-harness overhead"));
    }
}
