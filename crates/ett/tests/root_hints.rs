//! Tests of the version-validated root-hint cache (`DESIGN.md` §8).
//!
//! The cache is a pure accelerator, so every test here is about the two
//! things that could go wrong: a *stale* hint answering after its component
//! changed (the unsoundness the version validation must exclude — including
//! across the prepared-cut window, where walks from the detached piece
//! still end at the retained root), and invalidation bleeding into
//! components a writer never touched (which would erase the O(1) win).

use dc_ett::EulerForest;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn toggling_hints_on_a_fresh_forest_allocates_nothing() {
    let forest = EulerForest::new(1 << 20);
    assert!(!forest.hints_materialized());
    // Disabling (or enabling) before the first query records a pending
    // override without paying the O(n) table...
    forest.set_read_hints(false);
    assert!(!forest.hints_materialized());
    assert!(!forest.read_hints_enabled());
    forest.set_read_hints(true);
    assert!(!forest.hints_materialized());
    assert!(forest.read_hints_enabled());
    forest.set_read_hints(false);
    // ...and a query under a disabled override climbs without ever
    // building the table.
    assert!(!forest.connected(0, 1));
    assert!(!forest.hints_materialized());
    assert_eq!(forest.read_hint_stats(), (0, 0));
}

#[test]
fn repeat_queries_hit_the_cache() {
    let forest = EulerForest::new(8);
    forest.link(0, 1);
    forest.link(1, 2);
    forest.link(3, 4);

    // Cold: the first query climbs for both endpoints and installs hints
    // (counters are per endpoint resolution).
    assert!(forest.connected(0, 2));
    assert_eq!(forest.read_hint_stats(), (0, 2));

    // Warm: repeats answer from the cache — same pair, reversed pair, and a
    // cross-component pair once both endpoints are primed.
    assert!(forest.connected(0, 2)); // 2 hits
    assert!(forest.connected(2, 0)); // 2 hits
    assert!(forest.connected(3, 4)); // cold pair: 2 misses
    assert!(!forest.connected(0, 3)); // both endpoints primed: a false answer from hits
    assert_eq!(forest.read_hint_stats(), (6, 4));
}

#[test]
fn a_bump_invalidates_exactly_the_touched_component() {
    let forest = EulerForest::new(12);
    // Component A: 0-1-2; component B: 4-5-6; vertex 8 stays a singleton.
    forest.link(0, 1);
    forest.link(1, 2);
    forest.link(4, 5);
    forest.link(5, 6);
    // Prime hints in A, B and the singleton.
    assert!(forest.connected(0, 2));
    assert!(forest.connected(4, 6));
    assert!(!forest.connected(8, 0));
    assert!(forest.hint_valid(0));
    assert!(forest.hint_valid(2));
    assert!(forest.hint_valid(4));
    assert!(forest.hint_valid(6));
    assert!(forest.hint_valid(8));

    // Structural change in A only (grow it by a link).
    forest.link(2, 3);

    // Exactly A's hints became stale; B's and the singleton's still hold.
    assert!(!forest.hint_valid(0), "A's hints must be invalidated");
    assert!(!forest.hint_valid(2), "A's hints must be invalidated");
    assert!(forest.hint_valid(4), "B's hints must survive A's change");
    assert!(forest.hint_valid(6), "B's hints must survive A's change");
    assert!(forest.hint_valid(8), "the singleton's hint must survive");

    // Hits on B, misses (and a reprime) on A — confirmed by the counters
    // (per endpoint resolution: a two-endpoint query counts twice).
    let (hits_before, misses_before) = forest.read_hint_stats();
    assert!(forest.connected(4, 6));
    let (hits_mid, misses_mid) = forest.read_hint_stats();
    assert_eq!((hits_mid, misses_mid), (hits_before + 2, misses_before));
    // 0's hint is stale and 3 was never primed: two misses.
    assert!(forest.connected(0, 3));
    let (hits_after, misses_after) = forest.read_hint_stats();
    assert_eq!((hits_after, misses_after), (hits_mid, misses_mid + 2));
    assert!(forest.hint_valid(0), "the miss must reprime the hint");

    // A cut in A again leaves B untouched.
    forest.cut(1, 2);
    assert!(!forest.hint_valid(0));
    assert!(forest.hint_valid(4));
    assert!(!forest.connected(0, 2));
    assert!(forest.connected(4, 6));
}

#[test]
fn hints_installed_during_a_prepared_cut_die_at_commit() {
    // Regression test for the subtle case the proptest suite caught during
    // development: during the prepared window walks from the detached piece
    // still end at the retained root, and readers install hints saying so.
    // `commit_cut` must bump the retained root *after* the logical split
    // store (and the detached root before it), or those hints would keep
    // validating — and keep answering `connected` — after the split
    // (DESIGN.md §8, the post-store bump rule).
    let forest = EulerForest::new(6);
    forest.link(0, 1);
    forest.link(1, 2);
    forest.link(2, 3);

    let cut = forest.prepare_cut(1, 2);
    // Readers during the window still see one component, and install hints.
    assert!(forest.connected(0, 3));
    assert!(forest.connected(3, 0));

    forest.commit_cut(&cut);
    // The very hints installed above must now fail validation.
    assert!(!forest.connected(0, 3));
    assert!(!forest.connected(3, 0));
    assert!(forest.connected(0, 1));
    assert!(forest.connected(2, 3));
    forest.validate();
}

#[test]
fn forest_connected_many_agrees_with_connected() {
    let forest = EulerForest::new(16);
    for v in 0..7 {
        forest.link(v, v + 1);
    }
    forest.link(9, 10);
    let pairs: Vec<(u32, u32)> = vec![
        (0, 7),
        (7, 0),
        (3, 3),
        (0, 9),
        (9, 10),
        (11, 12),
        (0, 7),
        (5, 2),
        (10, 9),
    ];
    for warm in [false, true, true] {
        if !warm {
            // Exercise the cold path with the cache disabled too.
            forest.set_read_hints(false);
        } else {
            forest.set_read_hints(true);
        }
        let mut bulk = Vec::new();
        forest.connected_many_into(&pairs, &mut bulk);
        let single: Vec<bool> = pairs.iter().map(|&(u, v)| forest.connected(u, v)).collect();
        assert_eq!(bulk, single);
        assert_eq!(
            bulk,
            vec![true, true, true, false, true, false, true, true, true]
        );
    }
}

#[test]
fn concurrent_readers_stay_exact_while_another_component_churns() {
    // Vertices 0..8 churn (single writer); vertices 8..16 form a stable
    // path. Readers hammer the stable component and the cross-component
    // pairs through the hint cache while the writer links and cuts — every
    // one of those answers is deterministic and must stay exact, even
    // though the writer's bumps continuously invalidate the churned
    // component's hints.
    let forest = EulerForest::new(16);
    for v in 8..15 {
        forest.link(v, v + 1);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let forest = &forest;
            let stop = &stop;
            scope.spawn(move || {
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while !stop.load(Ordering::Relaxed) {
                    let a = 8 + (rand() % 8) as u32;
                    let b = 8 + (rand() % 8) as u32;
                    assert!(forest.connected(a, b), "stable component split?!");
                    let c = (rand() % 8) as u32;
                    assert!(
                        !forest.connected(a, c),
                        "phantom edge between the churned and stable halves"
                    );
                    assert!(forest.connected(c, c));
                }
            });
        }
        // The single writer: link/cut cycles over a small edge set in the
        // churned half, continuously bumping that half's root versions.
        for round in 0..2_000u32 {
            let u = round % 7;
            forest.link(u, u + 1);
            forest.cut(u, u + 1);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (hits, misses) = forest.read_hint_stats();
    assert!(
        hits > 0,
        "stable-component reads must hit ({hits}/{misses})"
    );
    forest.validate();
}

/// Regression probe for the busy bit (`DESIGN.md` §8). One writer toggles a
/// bridge `link(3, 12)` / `cut(3, 12)` between two fixed paths while three
/// readers query pairs inside each path, which are connected throughout.
///
/// Without the busy bit, a hint claim `(lo, x)` taken after `link`'s rule-1
/// bump but before its merge store kept validating until the rule-2 bump;
/// a reader preempted into that window paired it with a fresh claim on the
/// merged root and answered `connected(2, 6) == false` (and `commit_cut` had
/// the mirror window for `true`). The readers also check the bridge pair
/// against a phase word the writer publishes around each operation: a query
/// that starts and ends inside one quiet phase must see that phase's state.
#[test]
fn hint_claims_never_straddle_a_link_or_cut() {
    use std::sync::atomic::AtomicU64;
    const TOGGLES: u64 = 150_000;
    let forest = EulerForest::new(16);
    for v in 0..7 {
        forest.link(v, v + 1);
    }
    for v in 12..15 {
        forest.link(v, v + 1);
    }
    // phase % 4: 0 = bridge absent, 1 = linking, 2 = bridge present,
    // 3 = cutting.
    let phase = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for reader in 0..3u32 {
            let (forest, phase, stop) = (&forest, &phase, &stop);
            s.spawn(move || {
                let mut out = Vec::with_capacity(8);
                while !stop.load(Ordering::Relaxed) {
                    assert!(forest.connected(2, 6), "reader {reader}: path 0-7 split");
                    assert!(
                        forest.connected(13, 15),
                        "reader {reader}: path 12-15 split"
                    );
                    let before = phase.load(Ordering::SeqCst);
                    let bridged = forest.connected(1, 14);
                    let after = phase.load(Ordering::SeqCst);
                    if before == after && before % 2 == 0 {
                        assert_eq!(
                            bridged,
                            before % 4 == 2,
                            "reader {reader}: bridge answer contradicts quiet phase {before}"
                        );
                    }
                    out.clear();
                    forest.connected_many_into(&[(2, 6), (6, 2), (0, 7), (12, 15)], &mut out);
                    assert_eq!(out, [true; 4], "reader {reader}: bulk read split a path");
                }
            });
        }
        for _ in 0..TOGGLES {
            phase.fetch_add(1, Ordering::SeqCst);
            forest.link(3, 12);
            phase.fetch_add(1, Ordering::SeqCst);
            phase.fetch_add(1, Ordering::SeqCst);
            forest.cut(3, 12);
            phase.fetch_add(1, Ordering::SeqCst);
        }
        stop.store(true, Ordering::Relaxed);
    });
    forest.validate();
}
