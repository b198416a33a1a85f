//! The fault-harness report, emitted as `BENCH_faults.json`.
//!
//! Two cells track the failure-path machinery of `dc_faults` (`DESIGN.md`
//! §13):
//!
//! * **armed-injection cost** — the batch engine runs the read-storm
//!   workload through its adapter doors (every op crosses the
//!   `IntakeStall` check, every batch the two leader-panic checks, every
//!   link the `ArenaAlloc` check) on a fresh engine with no schedule
//!   (**baseline**) and with an attached empty schedule (**armed**: every
//!   check takes the slow path but nothing ever fires). The armed cell
//!   reports its cost against baseline together with the checks it
//!   crossed per point. Nothing is gated: arming is a diagnosis session and
//!   may cost something, and a schedule-free engine is exactly what every
//!   perfbench workload measures.
//!
//! * **recovery-from-poison latency** — a durable store is populated (its
//!   last few acked batches behind its last checkpoint), its engine is
//!   poisoned by an injected leader panic
//!   ([`InjectionPoint::LeaderPanicBeforeApply`]), and the wall time of
//!   [`DurableConnectivity::rebuild`] — the typed door out of the poisoned
//!   state, close writer → restore the checkpoint and replay the WAL tail
//!   → fresh engine — is
//!   measured over `recovery_repeats` poison/rebuild cycles (best and
//!   median reported), as a release-mode smoke that the poison → rebuild →
//!   agree contract holds outside the unit tests.

use crate::config::{quick, threads_or};
use crate::report::{document, Json};
use crate::throughput::run_streams;
use dc_durable::{DurableConnectivity, DurableOptions};
use dc_faults::{ChaosConfig, ChaosSchedule, InjectionPoint};
use dc_workloads::{presets, Topology};
use dynconn::DynamicConnectivity;
use std::sync::Arc;
use std::time::Instant;

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
    /// Repetitions; best throughput per mode is kept.
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
        let (n, ops_per_thread, threads, repeats, recovery_edges, recovery_repeats) = if quick() {
            (512, 4_000, 4, 3, 256, 3)
        } else {
            (4_096, 40_000, 8, 5, 2_048, 5)
        };
        FaultsBenchConfig {
            n,
            ops_per_thread,
            threads: threads_or(threads),
            seed: 0xFA07,
            repeats,
            recovery_edges,
            recovery_repeats,
        }
    }
}

/// One measured injection-check mode.
#[derive(Clone, Debug)]
pub struct FaultModeCell {
    /// Mode name ("baseline", "armed").
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
#[derive(Clone, Debug)]
pub struct FaultsBaseline {
    /// The configuration the numbers were measured at.
    pub config: FaultsBenchConfig,
    /// The two mode cells, baseline first.
    pub modes: Vec<FaultModeCell>,
    /// Injection checks the armed runs actually crossed, per point — a
    /// smoke that the measured workload really exercises the check sites.
    pub armed_checks: Vec<(String, u64)>,
    /// The recovery-from-poison cell.
    pub recovery: RecoveryCell,
}

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

/// Acked chain edges written after the store's last checkpoint, so every
/// rebuild restores a checkpoint *and* replays a WAL tail. Below the
/// automatic checkpoint interval, so no automatic checkpoint lands inside
/// the tail.
const RECOVERY_TAIL: usize = 8;

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
        let options = DurableOptions::default();
        assert!(RECOVERY_TAIL < options.checkpoint_interval as usize);
        let store = DurableConnectivity::create(&dir, vertices, options)
            .expect("create durable store for the recovery cell");
        let tail_from = config.recovery_edges.saturating_sub(RECOVERY_TAIL);
        for u in 0..config.recovery_edges as u32 {
            if u as usize == tail_from {
                store
                    .checkpoint()
                    .expect("checkpoint before the recovery cell's WAL tail");
            }
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
        assert!(
            report.batches_replayed > 0,
            "the rebuild replayed no WAL tail (checkpoint seq {})",
            report.checkpoint_seq
        );
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

/// Measures the armed-injection cost and the recovery-from-poison latency,
/// best-of-`repeats`.
pub fn run_faults_bench(config: &FaultsBenchConfig) -> FaultsBaseline {
    let topo = Topology::PowerLaw {
        n: config.n,
        m_per_vertex: 4,
    };
    let graph = topo.build(config.seed);
    let workload = presets::read_storm(&graph, config.threads, config.ops_per_thread, config.seed);
    let streams = workload.flat_per_thread();
    let armed = empty_schedule(config.seed);
    let run = |schedule: Option<&Arc<ChaosSchedule>>| {
        let engine = dc_batch::BatchEngine::new(graph.num_vertices());
        if let Some(schedule) = schedule {
            engine.attach_chaos(Arc::clone(schedule));
        }
        run_streams(&engine, &workload.preload, &streams).ops_per_ms * 1e3
    };

    // One unmeasured warm-up run: the first run of the process pays page
    // faults and cold caches none of the later cells pay.
    run(None);
    let (mut baseline_ops, mut armed_ops) = (0.0f64, 0.0f64);
    for _ in 0..config.repeats.max(1) {
        baseline_ops = baseline_ops.max(run(None));
        armed_ops = armed_ops.max(run(Some(&armed)));
    }
    let cell = |mode: &str, ops_per_sec: f64| FaultModeCell {
        mode: mode.to_string(),
        ops_per_sec,
        overhead_percent: (1.0 - ops_per_sec / baseline_ops.max(1e-9)) * 100.0,
    };
    let armed_checks = InjectionPoint::ALL
        .iter()
        .map(|&p| (p.name().to_string(), armed.checks(p)))
        .filter(|(_, v)| *v > 0)
        .collect();

    FaultsBaseline {
        config: config.clone(),
        modes: vec![cell("baseline", baseline_ops), cell("armed", armed_ops)],
        armed_checks,
        recovery: measure_recovery(config),
    }
}

impl FaultsBaseline {
    /// Renders the measurement as the `dc-bench/faults/v2` document.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let r = &self.recovery;
        document(
            "dc-bench/faults/v2",
            vec![
                (
                    "config",
                    Json::obj([
                        ("vertices", Json::int(c.n)),
                        ("ops_per_thread", Json::int(c.ops_per_thread)),
                        ("threads", Json::int(c.threads)),
                        ("seed", Json::Int(c.seed)),
                        ("repeats_best_of", Json::int(c.repeats)),
                        ("recovery_edges", Json::int(c.recovery_edges)),
                        ("recovery_repeats", Json::int(c.recovery_repeats)),
                    ]),
                ),
                (
                    "modes",
                    Json::obj(self.modes.iter().map(|m| {
                        let cell = Json::obj([
                            ("ops_per_sec", Json::Num(m.ops_per_sec)),
                            ("overhead_percent", Json::Num(m.overhead_percent)),
                        ]);
                        (m.mode.as_str(), cell)
                    })),
                ),
                (
                    "armed_checks",
                    Json::obj(
                        self.armed_checks
                            .iter()
                            .map(|(k, v)| (k.as_str(), Json::Int(*v))),
                    ),
                ),
                (
                    "recovery",
                    Json::obj([
                        ("vertices", Json::int(r.vertices)),
                        ("acked_edges", Json::int(r.acked_edges)),
                        ("rebuild_ms_best", Json::Num(r.rebuild_ms_best)),
                        ("rebuild_ms_median", Json::Num(r.rebuild_ms_median)),
                        ("batches_replayed", Json::Int(r.batches_replayed)),
                        ("checkpoint_seq", Json::Int(r.checkpoint_seq)),
                        ("repeats", Json::int(r.repeats)),
                    ]),
                ),
            ],
        )
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== Fault-harness cost (batch-engine read storm, {} threads) ==\n{:<20}{:>14}{:>12}\n",
            self.config.threads, "mode", "ops/s", "overhead %"
        );
        for cell in &self.modes {
            out.push_str(&format!(
                "{:<20}{:>14.0}{:>12.2}\n",
                cell.mode, cell.ops_per_sec, cell.overhead_percent
            ));
        }
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
        assert_eq!(modes, ["baseline", "armed"]);
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
        let json = baseline.to_json();
        assert!(json.contains("dc-bench/faults/v2"));
        assert!(json.contains("rebuild_ms_best"));
        assert!(baseline.render_text().contains("Fault-harness cost"));
    }
}
