//! The durability tier, emitted as `BENCH_durability.json`: what does the
//! WAL + checkpoint layer (`DESIGN.md` §9) cost on the write path under each
//! fsync policy?
//!
//! The same effective-churn batch stream is driven through a plain
//! [`dc_batch::BatchEngine`] (no log) and through
//! [`dc_durable::DurableConnectivity`] under each fsync policy
//! ([`FsyncPolicy::Always`] / [`FsyncPolicy::EveryN`] / [`FsyncPolicy::Off`]),
//! with automatic checkpointing every `checkpoint_interval` batches. Each
//! cell reports throughput, the overhead versus the plain engine, and the
//! bytes the run left on disk (segments and checkpoints separately).
//! Timings are best-of-`repeats`. The repository benchmark's
//! durable-service workload (`perfbench/`) runs [`FsyncPolicy::Off`] only,
//! so the other policies are measured here; recovery time is its
//! `recover_s`.

use crate::config::quick;
use crate::report::{document, Json};
use dc_batch::BatchEngine;
use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy};
use dynconn::{BatchConnectivity, BatchOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Scenario parameters for the durability benchmark.
#[derive(Clone, Debug)]
pub struct DurabilityBenchConfig {
    /// Vertex universe.
    pub n: usize,
    /// Total update operations in the history.
    pub total_ops: usize,
    /// Operations per bulk batch (one batch = one WAL commit).
    pub batch_ops: usize,
    /// The `n` of the [`FsyncPolicy::EveryN`] overhead cell.
    pub every_n: u32,
    /// Automatic checkpoint interval, in committed batches.
    pub checkpoint_interval: u64,
    /// Repetitions; the best (lowest) time per cell is kept.
    pub repeats: usize,
    /// PRNG seed for the operation history.
    pub seed: u64,
}

impl DurabilityBenchConfig {
    /// The tracked configuration (shrunk under `DC_BENCH_QUICK=1`).
    pub fn from_env() -> Self {
        let (n, total_ops, batch_ops, checkpoint_interval, repeats) = if quick() {
            (256, 4_000, 128, 8, 1)
        } else {
            (2_048, 40_000, 256, 16, 3)
        };
        DurabilityBenchConfig {
            n,
            total_ops,
            batch_ops,
            every_n: 8,
            checkpoint_interval,
            repeats,
            seed: 0xD15C,
        }
    }
}

/// One fsync-policy cell of the WAL-overhead table.
#[derive(Clone, Debug)]
pub struct WalOverheadCell {
    /// Policy label (`always`, `everyN`, `off`).
    pub policy: String,
    /// Updates per second through the durable store.
    pub ops_per_sec: f64,
    /// Wall time of the kept run, milliseconds.
    pub millis: f64,
    /// Slowdown versus the plain (log-free) engine, in percent.
    pub overhead_percent: f64,
    /// Bytes of WAL segments left on disk after the run.
    pub wal_bytes: u64,
    /// Bytes of checkpoint files left on disk after the run.
    pub checkpoint_bytes: u64,
    /// Last committed sequence number (confirms every batch was logged).
    pub last_seq: u64,
}

/// Everything the durability tier measured, serializable as
/// `BENCH_durability.json`.
#[derive(Clone, Debug)]
pub struct DurabilityBaseline {
    /// The configuration that produced the numbers.
    pub config: DurabilityBenchConfig,
    /// Plain-engine throughput on the same batch stream (updates/sec).
    pub plain_ops_per_sec: f64,
    /// Plain-engine wall time, milliseconds.
    pub plain_millis: f64,
    /// One cell per fsync policy.
    pub wal_overhead: Vec<WalOverheadCell>,
}

impl DurabilityBaseline {
    /// Serializes as the `dc-bench/durability/v2` document
    /// (`docs/bench-schema.md`).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let cells = self.wal_overhead.iter().map(|cell| {
            Json::obj([
                ("policy", Json::str(&cell.policy)),
                ("ops_per_sec", Json::Num(cell.ops_per_sec)),
                ("millis", Json::Num(cell.millis)),
                ("overhead_percent", Json::Num(cell.overhead_percent)),
                ("wal_bytes", Json::Int(cell.wal_bytes)),
                ("checkpoint_bytes", Json::Int(cell.checkpoint_bytes)),
                ("last_seq", Json::Int(cell.last_seq)),
            ])
        });
        document(
            "dc-bench/durability/v2",
            vec![
                (
                    "config",
                    Json::obj([
                        ("n", Json::int(c.n)),
                        ("total_ops", Json::int(c.total_ops)),
                        ("batch_ops", Json::int(c.batch_ops)),
                        ("every_n", Json::int(c.every_n)),
                        ("checkpoint_interval", Json::Int(c.checkpoint_interval)),
                        ("repeats", Json::int(c.repeats)),
                        ("seed", Json::Int(c.seed)),
                    ]),
                ),
                (
                    "plain",
                    Json::obj([
                        ("ops_per_sec", Json::Num(self.plain_ops_per_sec)),
                        ("millis", Json::Num(self.plain_millis)),
                    ]),
                ),
                ("wal_overhead", Json::Arr(cells.collect())),
            ],
        )
    }

    /// Human-readable result table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== Durability tier: {} ops in batches of {} over {} vertices ==\n\
             plain engine (no WAL): {:>12.0} updates/sec\n\
             {:<12}{:>14}{:>12}{:>12}{:>12}\n",
            self.config.total_ops,
            self.config.batch_ops,
            self.config.n,
            self.plain_ops_per_sec,
            "fsync",
            "updates/sec",
            "overhead",
            "wal KiB",
            "ckpt KiB"
        );
        for cell in &self.wal_overhead {
            out.push_str(&format!(
                "{:<12}{:>14.0}{:>11.1}%{:>12.1}{:>12.1}\n",
                cell.policy,
                cell.ops_per_sec,
                cell.overhead_percent,
                cell.wal_bytes as f64 / 1024.0,
                cell.checkpoint_bytes as f64 / 1024.0
            ));
        }
        out
    }
}

/// Generates `count` always-effective update operations: adds of absent
/// edges, removes of present ones, from a shadow edge set (the same idiom
/// as the recovery differential tests — every op changes state, so every
/// batch carries real work into the log).
fn effective_ops(n: usize, count: usize, seed: u64) -> Vec<BatchOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut present: Vec<(u32, u32)> = Vec::new();
    let mut index: HashSet<(u32, u32)> = HashSet::new();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        if present.is_empty() || rng.gen_bool(0.62) {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if !index.insert(key) {
                continue;
            }
            present.push(key);
            ops.push(BatchOp::Add(u, v));
        } else {
            let i = rng.gen_range(0..present.len());
            let (u, v) = present.swap_remove(i);
            index.remove(&(u, v));
            ops.push(BatchOp::Remove(u, v));
        }
    }
    ops
}

/// Drives the batch stream through any batch door and returns wall millis.
fn time_batches(store: &dyn BatchConnectivity, ops: &[BatchOp], batch_ops: usize) -> f64 {
    let start = Instant::now();
    for chunk in ops.chunks(batch_ops) {
        std::hint::black_box(store.apply_batch(chunk));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// A scratch directory under the system temp dir, cleaned before use.
fn bench_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dc-bench-durability-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sums file sizes in `dir` by extension: (`.dcw` WAL bytes, `.dcc`
/// checkpoint bytes).
fn disk_usage(dir: &Path) -> (u64, u64) {
    let (mut wal, mut ckpt) = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            match entry.path().extension().and_then(|e| e.to_str()) {
                Some("dcw") => wal += len,
                Some("dcc") => ckpt += len,
                _ => {}
            }
        }
    }
    (wal, ckpt)
}

/// Runs the durability tier.
pub fn run_durability_bench(config: &DurabilityBenchConfig) -> DurabilityBaseline {
    let ops = effective_ops(config.n, config.total_ops, config.seed);

    // Plain-engine baseline: the identical batch stream, no log at all.
    let mut plain_millis = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let engine = BatchEngine::with_options(config.n, 64, 1);
        plain_millis = plain_millis.min(time_batches(&engine, &ops, config.batch_ops));
    }
    let plain_ops_per_sec = config.total_ops as f64 / (plain_millis / 1e3);

    // WAL overhead, one cell per fsync policy.
    let policies = [
        ("always".to_string(), FsyncPolicy::Always),
        (
            format!("every{}", config.every_n),
            FsyncPolicy::EveryN(config.every_n),
        ),
        ("off".to_string(), FsyncPolicy::Off),
    ];
    let mut wal_overhead = Vec::new();
    for (label, fsync) in policies {
        let mut best_millis = f64::INFINITY;
        let mut wal_bytes = 0;
        let mut checkpoint_bytes = 0;
        let mut last_seq = 0;
        for repeat in 0..config.repeats.max(1) {
            let dir = bench_dir(&format!("wal-{label}-{repeat}"));
            let opts = DurableOptions {
                fsync,
                checkpoint_interval: config.checkpoint_interval,
                ..DurableOptions::default()
            };
            let store =
                DurableConnectivity::create(&dir, config.n, opts).expect("bench store must create");
            let millis = time_batches(&store, &ops, config.batch_ops);
            assert!(!store.is_poisoned(), "bench run must not poison the log");
            if millis < best_millis {
                best_millis = millis;
                (wal_bytes, checkpoint_bytes) = disk_usage(&dir);
                last_seq = store.last_seq();
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
        wal_overhead.push(WalOverheadCell {
            policy: label,
            ops_per_sec: config.total_ops as f64 / (best_millis / 1e3),
            millis: best_millis,
            overhead_percent: (best_millis / plain_millis - 1.0) * 100.0,
            wal_bytes,
            checkpoint_bytes,
            last_seq,
        });
    }

    DurabilityBaseline {
        config: config.clone(),
        plain_ops_per_sec,
        plain_millis,
        wal_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_instance_smoke() {
        let config = DurabilityBenchConfig {
            n: 64,
            total_ops: 400,
            batch_ops: 32,
            every_n: 4,
            checkpoint_interval: 2,
            repeats: 1,
            seed: 7,
        };
        let baseline = run_durability_bench(&config);
        assert_eq!(baseline.wal_overhead.len(), 3);
        for cell in &baseline.wal_overhead {
            assert!(cell.ops_per_sec > 0.0);
            assert!(
                cell.wal_bytes > 0,
                "policy {} left no WAL bytes",
                cell.policy
            );
            assert!(
                cell.checkpoint_bytes > 0,
                "policy {} never checkpointed at interval 2",
                cell.policy
            );
            assert_eq!(cell.last_seq, (400 / 32) as u64 + 1); // 400/32 = 12.5 -> 13 batches
        }
        let json = baseline.to_json();
        assert!(json.contains("\"schema\": \"dc-bench/durability/v2\""));
        assert!(json.contains("\"overhead_percent\""));
        assert!(!baseline.render_text().is_empty());
    }

    #[test]
    fn effective_ops_are_always_effective() {
        let ops = effective_ops(32, 500, 3);
        assert_eq!(ops.len(), 500);
        let mut present = HashSet::new();
        for op in &ops {
            let (u, v) = op.endpoints();
            let key = (u.min(v), u.max(v));
            match op {
                BatchOp::Add(..) => assert!(present.insert(key)),
                BatchOp::Remove(..) => assert!(present.remove(&key)),
                _ => panic!("update ops only"),
            }
        }
    }
}
