//! Differential tests for the batch engine: random operation batches
//! applied through `dc_batch` must answer every query exactly like the same
//! operations applied one at a time to the sequential baseline oracle.

use dc_batch::Variant;
use dc_batch::{BatchConnectivity, BatchEngine, BatchOp, DynamicConnectivity};
use dynconn::{sequential_apply_batch, RecomputeOracle};
use proptest::prelude::*;

fn batch_op(n: u32) -> impl Strategy<Value = BatchOp> {
    let vertex = 0..n;
    prop_oneof![
        (vertex.clone(), 0..n).prop_map(|(u, v)| BatchOp::Add(u, v)),
        (vertex.clone(), 0..n).prop_map(|(u, v)| BatchOp::Remove(u, v)),
        (vertex, 0..n).prop_map(|(u, v)| BatchOp::Query(u, v)),
    ]
}

/// Self-loop updates are rejected at the single-op door (`add_edge(u, u)` is
/// a no-op) and dropped by the batch preprocessor; filter them out of the
/// generated streams so both doors see identical effective operations.
fn effective(ops: Vec<BatchOp>) -> Vec<BatchOp> {
    ops.into_iter()
        .filter(|op| {
            let (u, v) = op.endpoints();
            op.is_query() || u != v
        })
        .collect()
}

fn final_states_agree(engine: &BatchEngine, oracle: &RecomputeOracle, n: u32) {
    for u in 0..n {
        for v in (u + 1)..n {
            assert_eq!(
                engine.connected(u, v),
                oracle.connected(u, v),
                "final state diverged at pair ({u}, {v})"
            );
        }
    }
    engine.hdt().validate();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// One bulk batch answers exactly like sequential one-at-a-time
    /// execution on the oracle.
    #[test]
    fn one_bulk_batch_matches_the_sequential_oracle(
        ops in proptest::collection::vec(batch_op(12), 1..200),
    ) {
        let ops = effective(ops);
        let engine = BatchEngine::new(12);
        let oracle = RecomputeOracle::new(12);
        assert_eq!(engine.apply_batch(&ops), oracle.apply_batch(&ops));
        final_states_agree(&engine, &oracle, 12);
    }

    /// A stream chopped into batches of varying sizes (including size 1)
    /// stays sequentially equivalent across batch boundaries.
    #[test]
    fn chained_bulk_batches_match_the_sequential_oracle(
        ops in proptest::collection::vec(batch_op(10), 1..240),
        chop in 1usize..40,
    ) {
        let ops = effective(ops);
        let engine = BatchEngine::new(10);
        let oracle = RecomputeOracle::new(10);
        for chunk in ops.chunks(chop) {
            let got = engine.apply_batch(chunk);
            let want = sequential_apply_batch(&oracle, chunk);
            assert_eq!(got, want, "batch of {} diverged", chunk.len());
        }
        final_states_agree(&engine, &oracle, 10);
    }

    /// The single-op adapter door is sequentially equivalent too (the
    /// degenerate one-op-per-batch case).
    #[test]
    fn adapter_door_matches_the_sequential_oracle(
        ops in proptest::collection::vec(batch_op(10), 1..150),
    ) {
        let ops = effective(ops);
        let engine = BatchEngine::new(10);
        let oracle = RecomputeOracle::new(10);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                BatchOp::Add(u, v) => { engine.add_edge(u, v); oracle.add_edge(u, v); }
                BatchOp::Remove(u, v) => { engine.remove_edge(u, v); oracle.remove_edge(u, v); }
                BatchOp::Query(u, v) => {
                    assert_eq!(
                        engine.connected(u, v),
                        oracle.connected(u, v),
                        "query {i} ({u}, {v}) diverged",
                    );
                }
            }
        }
        final_states_agree(&engine, &oracle, 10);
    }

    /// The registry-built `Variant::BatchEngine` behaves identically to a
    /// directly constructed engine (it is the adapter under a trait object).
    #[test]
    fn registry_variant_matches_the_oracle(
        ops in proptest::collection::vec(batch_op(8), 1..100),
    ) {
        let ops = effective(ops);
        let dc = Variant::BatchEngine.build(8);
        let oracle = RecomputeOracle::new(8);
        for op in &ops {
            match *op {
                BatchOp::Add(u, v) => { dc.add_edge(u, v); oracle.add_edge(u, v); }
                BatchOp::Remove(u, v) => { dc.remove_edge(u, v); oracle.remove_edge(u, v); }
                BatchOp::Query(u, v) => assert_eq!(dc.connected(u, v), oracle.connected(u, v)),
            }
        }
    }
}

/// Concurrent adapter traffic on disjoint vertex ranges: each thread's
/// stream is deterministic within its own component, so per-thread query
/// answers must match a per-range sequential oracle even though batches mix
/// operations of all threads.
#[test]
fn concurrent_adapter_batches_match_per_component_oracles() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let threads = 4u32;
    let span = 12u32;
    let n = (threads * span) as usize;
    let engine = std::sync::Arc::new(BatchEngine::new(n));
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = std::sync::Arc::clone(&engine);
            s.spawn(move || {
                let base = t * span;
                let oracle = RecomputeOracle::new((base + span) as usize);
                let mut rng = StdRng::seed_from_u64(0xBA7C4 + t as u64);
                let mut edges: Vec<(u32, u32)> = Vec::new();
                for step in 0..400 {
                    let roll = rng.gen_range(0..100);
                    if roll < 40 || edges.is_empty() {
                        let u = base + rng.gen_range(0..span);
                        let v = base + rng.gen_range(0..span);
                        if u != v {
                            engine.add_edge(u, v);
                            oracle.add_edge(u, v);
                            edges.push((u, v));
                        }
                    } else if roll < 70 {
                        let idx = rng.gen_range(0..edges.len());
                        let (u, v) = edges.swap_remove(idx);
                        engine.remove_edge(u, v);
                        oracle.remove_edge(u, v);
                    } else {
                        let u = base + rng.gen_range(0..span);
                        let v = base + rng.gen_range(0..span);
                        assert_eq!(
                            engine.connected(u, v),
                            oracle.connected(u, v),
                            "thread {t} step {step}: query ({u}, {v}) diverged"
                        );
                    }
                }
            });
        }
    });
    // Components of different threads never connect.
    for t in 1..threads {
        assert!(!engine.connected(0, t * span));
    }
    engine.hdt().validate();
    let stats = engine.stats();
    assert!(stats.batches > 0);
    assert!(stats.applied_updates <= stats.submitted_updates);
}
