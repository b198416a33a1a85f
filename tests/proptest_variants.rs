//! Property-based tests: arbitrary operation sequences applied to the
//! dynamic connectivity variants must always agree with the BFS oracle, and
//! structural invariants must hold at every intermediate point.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dc_ett::EulerForest;
use dynconn::{Hdt, RecomputeOracle, UnionFind};
use proptest::prelude::*;

/// A symbolic operation over a small vertex universe.
#[derive(Clone, Copy, Debug)]
enum SymOp {
    Add(u32, u32),
    Remove(u32, u32),
    Query(u32, u32),
}

fn sym_op(n: u32) -> impl Strategy<Value = SymOp> {
    let vertex = 0..n;
    prop_oneof![
        (vertex.clone(), 0..n).prop_map(|(u, v)| SymOp::Add(u, v)),
        (vertex.clone(), 0..n).prop_map(|(u, v)| SymOp::Remove(u, v)),
        (vertex, 0..n).prop_map(|(u, v)| SymOp::Query(u, v)),
    ]
}

fn apply_and_compare(variant: Variant, n: u32, ops: &[SymOp]) {
    let dc = variant.build(n as usize);
    let label = variant.name();
    let oracle = RecomputeOracle::new(n as usize);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            SymOp::Add(u, v) => {
                dc.add_edge(u, v);
                oracle.add_edge(u, v);
            }
            SymOp::Remove(u, v) => {
                dc.remove_edge(u, v);
                oracle.remove_edge(u, v);
            }
            SymOp::Query(u, v) => {
                prop_assert_eq_msg(dc.connected(u, v), oracle.connected(u, v), label, i);
            }
        }
    }
    // Final full cross-check over all pairs.
    for u in 0..n {
        for v in (u + 1)..n {
            assert_eq!(
                dc.connected(u, v),
                oracle.connected(u, v),
                "{label}: final state diverged at pair ({u}, {v})"
            );
        }
    }
}

fn prop_assert_eq_msg(got: bool, want: bool, label: &str, step: usize) {
    assert_eq!(
        got, want,
        "{label}: query at step {step} diverged from the oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// The full algorithm (variant 9) matches the oracle on any op sequence.
    #[test]
    fn our_algorithm_matches_oracle(ops in proptest::collection::vec(sym_op(12), 1..120)) {
        apply_and_compare(Variant::OurAlgorithm, 12, &ops);
    }

    /// The plain coarse-grained variant matches the oracle on any op
    /// sequence.
    #[test]
    fn coarse_grained_matches_oracle(ops in proptest::collection::vec(sym_op(12), 1..120)) {
        apply_and_compare(Variant::CoarseGrained, 12, &ops);
    }

    /// The fine-grained + non-blocking-reads variant matches the oracle.
    #[test]
    fn fine_nonblocking_matches_oracle(ops in proptest::collection::vec(sym_op(12), 1..120)) {
        apply_and_compare(Variant::FineNonBlockingReads, 12, &ops);
    }

    /// The flat-combining variant with lock-free reads matches the oracle.
    #[test]
    fn combining_matches_oracle(ops in proptest::collection::vec(sym_op(10), 1..80)) {
        apply_and_compare(Variant::FlatCombiningNonBlockingReads, 10, &ops);
    }

    /// The batch engine (variant 14, through its single-op adapter) matches
    /// the oracle.
    #[test]
    fn batch_engine_matches_oracle(ops in proptest::collection::vec(sym_op(10), 1..80)) {
        apply_and_compare(Variant::BatchEngine, 10, &ops);
    }

    /// Incremental-only sequences agree with union-find (a strictly stronger
    /// oracle match than BFS, covering the "incremental scenario" code path).
    #[test]
    fn incremental_sequences_match_union_find(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..150)
    ) {
        let dc = Variant::OurAlgorithm.build(20);
        let mut uf = UnionFind::new(20);
        for &(u, v) in &edges {
            dc.add_edge(u, v);
            if u != v {
                uf.union(u, v);
            }
        }
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                prop_assert_eq!(dc.connected(u, v), uf.connected(u, v));
            }
        }
    }

    /// The single-writer Euler Tour Tree keeps `connected` consistent with a
    /// reference forest under arbitrary link/cut sequences (cutting an absent
    /// edge is skipped, linking two already-connected vertices is skipped —
    /// both would violate the forest precondition).
    #[test]
    fn euler_forest_matches_reference_forest(
        ops in proptest::collection::vec((0u32..16, 0u32..16, proptest::bool::ANY), 1..120)
    ) {
        let forest = EulerForest::new(16);
        let oracle = RecomputeOracle::new(16);
        let mut tree_edges: Vec<(u32, u32)> = Vec::new();
        for &(u, v, add) in &ops {
            if u == v {
                continue;
            }
            if add {
                if !forest.connected(u, v) {
                    forest.link(u, v);
                    oracle.add_edge(u, v);
                    tree_edges.push((u, v));
                }
            } else if let Some(pos) = tree_edges
                .iter()
                .position(|&(a, b)| (a == u && b == v) || (a == v && b == u))
            {
                forest.cut(u, v);
                oracle.remove_edge(u, v);
                tree_edges.swap_remove(pos);
            }
            // Spot-check a pair derived from the operands.
            let a = (u * 7 + 3) % 16;
            let b = (v * 5 + 1) % 16;
            prop_assert_eq!(forest.connected(a, b), oracle.connected(a, b));
        }
        forest.validate();
    }

    /// The HDT core's `validate()` holds after any locked operation sequence,
    /// and `component_size` sums to the vertex count.
    #[test]
    fn hdt_validate_holds_on_any_sequence(
        ops in proptest::collection::vec((0u32..14, 0u32..14, proptest::bool::ANY), 1..100)
    ) {
        let hdt = Hdt::new(14);
        for &(u, v, add) in &ops {
            if u == v {
                continue;
            }
            hdt.with_components_locked(u, v, || {
                if add {
                    hdt.add_edge_locked(u, v);
                } else {
                    hdt.remove_edge_locked(u, v);
                }
            });
        }
        hdt.validate();
        // Component sizes must be consistent: summing 1/size(v) over all
        // vertices counts each component exactly once, so the total is the
        // number of components and must lie in [1, n].
        let inv_sum: f64 = (0..14u32).map(|v| 1.0 / hdt.component_size(v) as f64).sum();
        prop_assert!((0.99..=14.01).contains(&inv_sum));
    }
}
