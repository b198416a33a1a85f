//! Property test: a checkpoint serialize→restore round trip reproduces the
//! live structure exactly — same spanning-forest edges at the same levels,
//! same non-spanning adjacency, same connectivity answers — no matter what
//! operation history produced it.
//!
//! The walk goes through the full disk path (create → operate → checkpoint
//! → recover from the checkpoint alone), so it also pins the file format:
//! what `export_edges_locked` emits is what `bulk_build_levels` gets.

use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy};
use dynconn::{BatchConnectivity, BatchOp, DynamicConnectivity, RecomputeOracle};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const N: u32 = 14;

fn update_op(n: u32) -> impl Strategy<Value = BatchOp> {
    let vertex = 0..n;
    prop_oneof![
        (vertex.clone(), 0..n).prop_map(|(u, v)| BatchOp::Add(u, v)),
        (vertex, 0..n).prop_map(|(u, v)| BatchOp::Remove(u, v)),
    ]
}

fn effective(ops: Vec<BatchOp>) -> Vec<BatchOp> {
    ops.into_iter()
        .filter(|op| {
            let (u, v) = op.endpoints();
            u != v
        })
        .collect()
}

/// A fresh directory per proptest case (cases run in one process).
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dc-durable-ckpt-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 100,
        .. ProptestConfig::default()
    })]

    /// Operate through mixed doors (bulk batches of varying size), take a
    /// checkpoint, recover from it with no log tail, and compare the whole
    /// connectivity relation — plus the structure's own invariants.
    #[test]
    fn checkpoint_restore_reproduces_the_live_structure(
        ops in proptest::collection::vec(update_op(N), 1..220),
        chop in 1usize..24,
    ) {
        let ops = effective(ops);
        let opts = DurableOptions {
            fsync: FsyncPolicy::Off, // durability timing is not under test here
            checkpoint_interval: 0,  // only the explicit checkpoint below
            ..DurableOptions::default()
        };
        let dir = case_dir();
        let store = DurableConnectivity::create(&dir, N as usize, opts).unwrap();
        let oracle = RecomputeOracle::new(N as usize);
        for chunk in ops.chunks(chop.max(1)) {
            store.apply_batch(chunk);
            oracle.apply_batch(chunk);
        }
        let covered = store.checkpoint().unwrap();
        prop_assert_eq!(covered, store.last_seq());
        drop(store);

        let (recovered, report) = DurableConnectivity::recover(&dir, opts).unwrap();
        // The checkpoint covers everything: recovery must not replay.
        prop_assert_eq!(report.checkpoint_seq, covered);
        prop_assert_eq!(report.batches_replayed, 0);
        prop_assert_eq!(report.last_seq, covered);

        for u in 0..N {
            for v in (u + 1)..N {
                prop_assert_eq!(
                    recovered.connected(u, v),
                    oracle.connected(u, v),
                    "pair ({}, {}) diverged after checkpoint restore", u, v
                );
            }
        }
        recovered.engine().hdt().validate();

        // A second checkpoint off the restored structure must reproduce the
        // same edge classification (levels included): restoring restored
        // state is a fixed point.
        let covered2 = recovered.checkpoint().unwrap();
        prop_assert_eq!(covered2, covered);
        drop(recovered);
        let (again, _) = DurableConnectivity::recover(&dir, opts).unwrap();
        for u in 0..N {
            for v in (u + 1)..N {
                prop_assert_eq!(again.connected(u, v), oracle.connected(u, v));
            }
        }
        again.engine().hdt().validate();
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
