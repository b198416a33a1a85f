//! Engine-poison × WAL interaction: a batch leader that panics (injected by
//! `dc_faults`) poisons the engine but must leave the durable log replayable,
//! and [`DurableConnectivity::rebuild`] must reconstruct a structure that
//! agrees with a [`RecomputeOracle`] over everything the log committed.
//!
//! The two chaos points bracket the commit hook, which pins down exactly
//! what the rebuilt store may contain:
//!
//! * `LeaderPanicBeforeApply` — the dying batch was never applied and never
//!   logged: the rebuilt store equals the acked prefix *without* it.
//! * `LeaderPanicAfterCommit` — the dying batch was applied and logged, but
//!   its callers were never released: the rebuilt store equals the acked
//!   prefix *plus* the logged batch (replay is allowed to be ahead of the
//!   acks, never behind them).

use dc_batch::EngineError;
use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy};
use dc_faults::{ChaosConfig, ChaosSchedule, InjectionPoint};
use dc_obs::{Counter, Gauge, ObsSnapshot};
use dynconn::{BatchOp, DynamicConnectivity, RecomputeOracle};
use std::path::PathBuf;
use std::sync::Arc;

const N: u32 = 24;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dc-durable-engine-poison-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        ..DurableOptions::default()
    }
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

/// Asserts `store` answers `connected` exactly like `oracle` on every pair.
fn assert_matches_oracle(store: &DurableConnectivity, oracle: &RecomputeOracle, label: &str) {
    for u in 0..N {
        for v in (u + 1)..N {
            assert_eq!(
                store.connected(u, v),
                oracle.connected(u, v),
                "{label}: disagreement on ({u}, {v})"
            );
        }
    }
}

/// Builds a chain 0-1-2-…-11 (acked prefix), then lets one more batch die on
/// the given chaos point. Returns (rebuilt store, oracle of the acked
/// prefix, last_seq before the fault).
fn poison_and_rebuild(
    tag: &str,
    point: InjectionPoint,
) -> (DurableConnectivity, RecomputeOracle, u64) {
    let dir = test_dir(tag);
    let store = DurableConnectivity::create(&dir, N as usize, opts()).unwrap();
    let oracle = RecomputeOracle::new(N as usize);
    for u in 0..11 {
        store.add_edge(u, u + 1);
        oracle.add_edge(u, u + 1);
    }
    let acked_seq = store.last_seq();
    assert_eq!(acked_seq, 11, "one effective op per adapter batch");

    store.engine().attach_chaos(one_shot(point));
    let died = store
        .engine()
        .try_apply_batch(&[dynconn::BatchOp::Add(20, 21), dynconn::BatchOp::Add(21, 22)]);
    assert_eq!(
        died,
        Err(EngineError::Poisoned),
        "the chaos point must fire"
    );
    assert!(store.engine().is_poisoned());
    // The WAL itself is healthy — only the engine is poisoned.
    assert!(
        !store.is_poisoned(),
        "a leader panic must not poison the WAL"
    );

    let (rebuilt, report) = store.rebuild().expect("the log must stay replayable");
    assert!(report.batches_replayed > 0 || report.checkpoint_seq > 0);
    assert!(!rebuilt.engine().is_poisoned(), "rebuild starts clean");
    rebuilt.engine().hdt().validate();
    (rebuilt, oracle, acked_seq)
}

#[test]
fn panic_before_apply_rebuilds_to_the_acked_prefix() {
    let (rebuilt, oracle, acked_seq) =
        poison_and_rebuild("before-apply", InjectionPoint::LeaderPanicBeforeApply);
    // The dying batch was never logged: replay stops at the acked prefix,
    // and the poisoned-then-rebuilt structure must agree with the oracle on
    // exactly that prefix.
    assert_eq!(rebuilt.last_seq(), acked_seq);
    assert!(
        !rebuilt.connected(20, 22),
        "the dead batch must not resurface"
    );
    assert_matches_oracle(&rebuilt, &oracle, "before-apply");
}

#[test]
fn panic_after_commit_rebuilds_to_the_logged_batch() {
    let (rebuilt, oracle, acked_seq) =
        poison_and_rebuild("after-commit", InjectionPoint::LeaderPanicAfterCommit);
    // The dying batch was logged before the panic: replay includes it. The
    // rebuilt store is the acked prefix plus that batch — ahead of the
    // acks, never behind them.
    assert_eq!(rebuilt.last_seq(), acked_seq + 1);
    assert!(rebuilt.connected(20, 22), "the logged batch must replay");
    oracle.add_edge(20, 21);
    oracle.add_edge(21, 22);
    assert_matches_oracle(&rebuilt, &oracle, "after-commit");
}

#[test]
fn rebuilt_store_keeps_working_and_logging() {
    let (rebuilt, _oracle, _) =
        poison_and_rebuild("resume", InjectionPoint::LeaderPanicBeforeApply);
    let seq = rebuilt.last_seq();
    // The rebuilt engine accepts updates, logs them, and survives another
    // recovery cycle.
    rebuilt.add_edge(15, 16);
    assert!(rebuilt.connected(15, 16));
    assert_eq!(rebuilt.last_seq(), seq + 1);
    let (again, _report) = rebuilt.rebuild().unwrap();
    again.engine().hdt().validate();
    assert!(again.connected(15, 16));
    assert!(again.connected(0, 11));
}

/// The `engine_poisoned` gauge a snapshot of stores `a` and `b` reports.
fn poisoned_gauge(a: &DurableConnectivity, b: &DurableConnectivity) -> u64 {
    ObsSnapshot::gather(&[
        ("a", a.engine().hdt().tally()),
        ("b", b.engine().hdt().tally()),
    ])
    .gauge(Gauge::EnginePoisoned)
}

#[test]
fn rebuilding_one_store_keeps_another_stores_poison_reported() {
    let a = DurableConnectivity::create(test_dir("gauge-a"), N as usize, opts()).unwrap();
    let b = DurableConnectivity::create(test_dir("gauge-b"), N as usize, opts()).unwrap();
    a.add_edge(0, 1);
    b.add_edge(0, 1);
    a.engine()
        .attach_chaos(one_shot(InjectionPoint::LeaderPanicBeforeApply));
    assert_eq!(
        a.engine().try_apply_batch(&[BatchOp::Add(2, 3)]),
        Err(EngineError::Poisoned)
    );
    assert_eq!(poisoned_gauge(&a, &b), 1);
    let (b, _) = b.rebuild().unwrap();
    assert_eq!(poisoned_gauge(&a, &b), 1, "a is still poisoned");
    let (a, _) = a.rebuild().unwrap();
    assert_eq!(poisoned_gauge(&a, &b), 0);
}

#[test]
fn two_stores_export_separate_series() {
    let a = DurableConnectivity::create(test_dir("series-a"), N as usize, opts()).unwrap();
    let b = DurableConnectivity::create(test_dir("series-b"), N as usize, opts()).unwrap();
    for u in 0..5 {
        a.add_edge(u, u + 1);
    }
    b.add_edge(0, 1);
    a.checkpoint().unwrap();
    let snap = ObsSnapshot::gather(&[
        ("a", a.engine().hdt().tally()),
        ("b", b.engine().hdt().tally()),
    ]);
    let text = snap.to_prometheus();
    for (label, store, checkpoints) in [("a", &a, 1), ("b", &b, 0)] {
        let hdt = store.engine().hdt().stats();
        let engine = store.engine().stats();
        for (c, value) in [
            (Counter::HdtAdditions, hdt.additions),
            (Counter::BatchesDrained, engine.batches),
            (Counter::BatchUpdatesApplied, engine.applied_updates),
            (Counter::WalBatches, store.last_seq()),
            (Counter::Checkpoints, checkpoints),
        ] {
            let series = format!("dc_{}_total{{instance=\"{label}\"}} {value}\n", c.name());
            assert!(text.contains(&series), "missing {series:?} in\n{text}");
        }
    }
    assert_eq!(snap.counter(Counter::WalBatches), 6);
}
