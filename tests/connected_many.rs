//! Differential tests of the bulk read path (`connected_many`) — the
//! interleaved, prefetched engine against scalar per-pair `connected` with
//! hints off (the paper's Listing-1 climb) and the BFS recompute oracle.
//!
//! Covers the edge cases the batched protocol must not trip over:
//!
//! * **self-pairs** `(v, v)` — answered `true` without touching the memo;
//! * **duplicate pairs** (same pair repeated, and repeated in the opposite
//!   orientation) — deduplicated endpoints share one memo entry, so every
//!   repetition must agree;
//! * **pairs straddling concurrent cuts** — readers bulk-query across a
//!   bridge the writer keeps cutting and re-linking; deterministic pairs
//!   are asserted exactly at every instant, racing pairs are validated by
//!   a quiescent differential sweep afterwards;
//! * **every interleave width and hint mode**, and, via proptest, **all
//!   fourteen variants** stay oracle-correct with the bulk engine routed
//!   through `Hdt::connected_many`.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dynconn::{Hdt, RecomputeOracle};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Interleave widths under test: the extremes and the default.
const WIDTHS: [usize; 4] = [1, 5, 8, 16];

/// Runs `pairs` through every bulk configuration of `hdt` and asserts each
/// answer list against per-pair `connected` with hints off — the Listing-1
/// climb, itself trusted via the differential suites of
/// `tests/oracle_all_variants.rs`.
fn assert_all_engines_match(hdt: &Hdt, pairs: &[(u32, u32)], context: &str) {
    hdt.set_read_hints(false);
    let expected: Vec<bool> = pairs.iter().map(|&(u, v)| hdt.connected(u, v)).collect();
    let mut got = Vec::new();
    for &hints in &[false, true] {
        hdt.set_read_hints(hints);
        for &width in &WIDTHS {
            hdt.set_interleave_width(width);
            got.clear();
            hdt.connected_many(pairs, &mut got);
            assert_eq!(
                got, expected,
                "{context}: interleaved (w={width}, hints={hints}) diverged"
            );
        }
    }
    hdt.set_read_hints(true);
}

/// Self-pairs, duplicates and both orientations of the same pair answer
/// exactly like per-pair `connected`, through every engine configuration.
#[test]
fn self_and_duplicate_pairs_match_per_pair_connected() {
    let hdt = Hdt::new(24);
    // Two components: a path 0..=9 and a triangle 20-21-22; 10..=19 isolated.
    for v in 0..9 {
        hdt.add_edge_locked(v, v + 1);
    }
    hdt.add_edge_locked(20, 21);
    hdt.add_edge_locked(21, 22);
    hdt.add_edge_locked(20, 22);
    let pairs = vec![
        (0, 9),   // connected, endpoints reused below
        (3, 3),   // self-pair inside a component
        (15, 15), // self-pair on an isolated vertex
        (0, 9),   // exact duplicate
        (9, 0),   // duplicate, opposite orientation
        (0, 20),  // across components
        (20, 0),  // ... and its flip
        (21, 22),
        (22, 22),
        (12, 13), // both isolated
        (0, 9),   // triplicate
        (9, 9),
    ];
    assert_all_engines_match(&hdt, &pairs, "static mixed pairs");
    // A cut between the duplicates' endpoints, then the same list again:
    // stale memo/hint state from the first sweep must revalidate.
    hdt.remove_edge_locked(4, 5);
    assert_all_engines_match(&hdt, &pairs, "after cutting 4-5");
    hdt.add_edge_locked(4, 5);
    assert_all_engines_match(&hdt, &pairs, "after re-linking 4-5");
}

/// A bulk run whose pair list is below the memo cutoff (< 4 pairs) and one
/// exactly at it behave identically through every engine.
#[test]
fn tiny_runs_and_cutoff_boundary_agree() {
    let hdt = Hdt::new(8);
    hdt.add_edge_locked(0, 1);
    hdt.add_edge_locked(2, 3);
    for len in 0..6 {
        let pairs: Vec<(u32, u32)> = (0..len)
            .map(|i| (i as u32 % 4, (i as u32 + 1) % 4))
            .collect();
        assert_all_engines_match(&hdt, &pairs, &format!("{len}-pair run"));
    }
}

/// Vertices that churn (bridge cuts land here).
const CHURN: u32 = 24;
/// Stable control vertices `CHURN..CHURN + STABLE`: a path that is never
/// churned, so bulk answers about it are deterministic at every instant.
const STABLE: u32 = 8;

/// Readers query pairs that straddle a bridge the writer keeps cutting, one
/// through the interleaved bulk engine and one pair by pair through scalar
/// `connected`: deterministic sub-answers are asserted mid-churn, racing
/// ones after quiescence against the recompute oracle.
#[test]
fn interleaved_agrees_with_scalar_under_concurrent_cuts() {
    let n = (CHURN + STABLE) as usize;
    let hdt = Hdt::new(n);
    let oracle = RecomputeOracle::new(n);
    // Stable path (never churned again).
    for v in CHURN..CHURN + STABLE - 1 {
        hdt.add_edge_locked(v, v + 1);
        oracle.add_edge(v, v + 1);
    }
    // Churned half: two cliques of 12 joined by bridge edges the writer
    // will cut and re-link, so bulk queries straddle real spanning cuts.
    for base in [0u32, 12u32] {
        for i in 0..12 {
            for j in (i + 1)..12 {
                if j == i + 1 || j == i + 5 {
                    hdt.add_edge_locked(base + i, base + j);
                    oracle.add_edge(base + i, base + j);
                }
            }
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let stop = &stop;
            let hdt = &hdt;
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Pairs 0..3 are deterministic under the churn below;
                    // the rest straddle the cut and race the writer.
                    let s = CHURN + (rand() % STABLE as u64) as u32;
                    let c = (rand() % CHURN as u64) as u32;
                    let straddle_a = (rand() % 12) as u32;
                    let straddle_b = 12 + (rand() % 12) as u32;
                    let pairs = [
                        (s, s),                             // self-pair: always true
                        (CHURN, CHURN + STABLE - 1),        // stable path: always true
                        (s, c),                             // stable vs churned: always false
                        (straddle_a, straddle_a),           // self-pair in the churn zone
                        (straddle_a, straddle_b),           // straddles the live cut
                        (straddle_b, straddle_a),           // ... duplicate, flipped
                        ((rand() % 12) as u32, straddle_b), // more racing traffic
                        (straddle_a, 12 + (rand() % 12) as u32),
                    ];
                    // One reader per door, so the bulk engine and scalar
                    // per-pair reads both run against the same churn.
                    out.clear();
                    if t == 0 {
                        hdt.connected_many(&pairs, &mut out);
                    } else {
                        out.extend(pairs.iter().map(|&(u, v)| hdt.connected(u, v)));
                    }
                    assert!(out[0], "self-pair answered false");
                    assert!(out[1], "stable path split");
                    assert!(!out[2], "churned half reached the stable path");
                    assert!(out[3], "churn-zone self-pair answered false");
                    // out[4] and out[5] are the same pair twice, but each
                    // answer linearizes independently — the writer may cut
                    // the bridge between them, so they may legally differ
                    // mid-churn. The quiescent sweep below pins them down.
                }
            });
        }
        // The writer: cut and re-link the bridge, sprinkled with clique
        // edge churn so replacement searches actually run.
        for round in 0..200u32 {
            let a = round % 12;
            hdt.add_edge_locked(a, 12 + a);
            oracle.add_edge(a, 12 + a);
            hdt.remove_edge_locked(a, 12 + a);
            oracle.remove_edge(a, 12 + a);
            let (u, v) = (round % 11, (round % 11) + 1);
            hdt.remove_edge_locked(u, v);
            oracle.remove_edge(u, v);
            hdt.add_edge_locked(u, v);
            oracle.add_edge(u, v);
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiescent differential over all pairs, every engine configuration.
    let mut pairs = Vec::new();
    for u in 0..n as u32 {
        for v in u..n as u32 {
            pairs.push((u, v));
        }
    }
    let expected: Vec<bool> = pairs.iter().map(|&(u, v)| oracle.connected(u, v)).collect();
    let mut got = Vec::new();
    for &hints in &[false, true] {
        hdt.set_read_hints(hints);
        got.clear();
        got.extend(pairs.iter().map(|&(u, v)| hdt.connected(u, v)));
        assert_eq!(
            got, expected,
            "per-pair connected (hints={hints}) diverged from the oracle after churn"
        );
        hdt.set_read_hints(hints);
        for &width in &WIDTHS {
            hdt.set_interleave_width(width);
            got.clear();
            hdt.connected_many(&pairs, &mut got);
            assert_eq!(
                got, expected,
                "interleaved (w={width}, hints={hints}) diverged from the oracle after churn"
            );
        }
    }
}

/// A symbolic structural operation over a small vertex universe.
#[derive(Clone, Copy, Debug)]
enum SymOp {
    Add(u32, u32),
    Remove(u32, u32),
}

fn sym_op(n: u32) -> impl Strategy<Value = SymOp> {
    prop_oneof![
        (0..n, 0..n).prop_map(|(u, v)| SymOp::Add(u, v)),
        (0..n, 0..n).prop_map(|(u, v)| SymOp::Remove(u, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After an arbitrary op sequence, a pair list salted with self-pairs
    /// and duplicates answers oracle-correct through every bulk engine
    /// configuration of a plain `Hdt`, and per-pair `connected` of **all
    /// fourteen variants** (whose bulk fan-out goes through the same
    /// `connected_many` door) agrees with the oracle on the same pairs.
    #[test]
    fn bulk_reads_match_oracle_for_all_variants(
        ops in proptest::collection::vec(sym_op(14), 1..80),
        raw_pairs in proptest::collection::vec((0u32..14, 0u32..14), 4..24),
    ) {
        let n = 14usize;
        // Salt the pair list: every pair also appears flipped, plus one
        // self-pair per distinct first endpoint.
        let mut pairs = raw_pairs.clone();
        for &(u, v) in &raw_pairs {
            pairs.push((v, u));
        }
        let mut firsts: Vec<u32> = raw_pairs.iter().map(|&(u, _)| u).collect();
        firsts.dedup();
        for u in firsts {
            pairs.push((u, u));
        }

        let oracle = RecomputeOracle::new(n);
        let hdt = Hdt::new(n);
        for &op in &ops {
            match op {
                SymOp::Add(u, v) => {
                    hdt.add_edge_locked(u, v);
                    oracle.add_edge(u, v);
                }
                SymOp::Remove(u, v) => {
                    hdt.remove_edge_locked(u, v);
                    oracle.remove_edge(u, v);
                }
            }
        }
        let expected: Vec<bool> = pairs.iter().map(|&(u, v)| oracle.connected(u, v)).collect();
        let mut got = Vec::new();
        for &hints in &[false, true] {
            hdt.set_read_hints(hints);
            for &width in &WIDTHS {
                hdt.set_interleave_width(width);
                got.clear();
                hdt.connected_many(&pairs, &mut got);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "interleaved (w={}, hints={}) diverged from the oracle",
                    width,
                    hints
                );
            }
        }

        for variant in Variant::all_extended() {
            let dc = variant.build(n);
            for &op in &ops {
                match op {
                    SymOp::Add(u, v) => dc.add_edge(u, v),
                    SymOp::Remove(u, v) => dc.remove_edge(u, v),
                }
            }
            for (i, &(u, v)) in pairs.iter().enumerate() {
                prop_assert_eq!(
                    dc.connected(u, v),
                    expected[i],
                    "{}: connected({}, {}) diverged from the oracle",
                    variant.name(),
                    u,
                    v
                );
            }
        }
    }
}
