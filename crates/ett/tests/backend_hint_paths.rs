//! Hint-miss path coverage: exact counter accounting for the branches of
//! `EulerForest::resolve_root_validated` (`DESIGN.md` §8).
//!
//! Three branches matter:
//!
//! * **absent hint** — the slot decodes to nothing, one miss, the
//!   double-walk primes it;
//! * **one-sided stale** — a query whose endpoints straddle a structural
//!   change records exactly one hit (the untouched side) and one miss (the
//!   bumped side), and the miss reprimes;
//! * **double-walk disagree** — a walk raced by the writer retries, but the
//!   miss was recorded *before* the walk loop, so each resolution moves the
//!   counters by exactly one no matter how many retries it took. That branch
//!   only fires under concurrency, so it is pinned by total accounting:
//!   `hits + misses` must equal the number of resolutions performed.

use dc_ett::EulerForest;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn absent_hint_misses_once_then_primes() {
    let forest = EulerForest::with_seed(8, 0);
    forest.link(0, 1);
    assert_eq!(
        forest.read_hint_stats(),
        (0, 0),
        "writer ops must not touch the read counters"
    );
    // Cold endpoints: one miss per resolution, both slots primed.
    assert!(forest.connected(0, 1));
    assert_eq!(forest.read_hint_stats(), (0, 2), "cold query");
    assert!(forest.hint_valid(0), "miss must prime the slot");
    assert!(forest.hint_valid(1), "miss must prime the slot");
    // Warm repeat: two hits, zero new misses.
    assert!(forest.connected(1, 0));
    assert_eq!(forest.read_hint_stats(), (2, 2), "warm query");
}

#[test]
fn one_sided_stale_counts_one_hit_one_miss() {
    let forest = EulerForest::with_seed(16, 0);
    // Component A: {0, 1}; component B: {2, 3}. Prime all four slots.
    forest.link(0, 1);
    forest.link(2, 3);
    assert!(forest.connected(0, 1));
    assert!(forest.connected(2, 3));
    let (h0, m0) = forest.read_hint_stats();
    assert_eq!((h0, m0), (0, 4), "priming");

    // Structural change in B only: B's root version bumps, A's survives.
    forest.link(3, 4);
    assert!(forest.hint_valid(0), "A's hint must survive");
    assert!(forest.hint_valid(1), "A's hint must survive");
    assert!(!forest.hint_valid(2), "B's hint must go stale");

    // The straddling query: endpoint 0 hits, endpoint 2 misses — exactly.
    assert!(!forest.connected(0, 2));
    assert_eq!(
        forest.read_hint_stats(),
        (h0 + 1, m0 + 1),
        "one-sided-stale must record exactly one hit and one miss"
    );
    assert!(forest.hint_valid(2), "the miss must reprime");

    // And the reprimed pair now answers from hits alone.
    assert!(!forest.connected(0, 2));
    assert_eq!(
        forest.read_hint_stats(),
        (h0 + 3, m0 + 1),
        "reprimed pair must hit on both sides"
    );
}

#[test]
fn resolve_accounting_stays_exact_under_churn() {
    let forest = EulerForest::with_seed(32, 0);
    // Stable path 16..31 gives the readers something to hit; the churned
    // half 0..15 forces stale hints and double-walk retries.
    for v in 16..31 {
        forest.link(v, v + 1);
    }
    let stop = AtomicBool::new(false);
    let mut reader_resolutions = 0u64;
    std::thread::scope(|scope| {
        let resolutions: Vec<_> = (0..3u64)
            .map(|t| {
                let forest = &forest;
                let stop = &stop;
                scope.spawn(move || {
                    let mut x = 0xD1B54A32D192ED03u64.wrapping_mul(t + 1);
                    let mut count = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let v = (x % 32) as u32;
                        let _ = forest.resolve_root_validated(v);
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        // The single writer churns the low half; its own operations never
        // go through the read path, so the counters belong to the readers
        // alone.
        for round in 0..4_000u32 {
            let u = round % 15;
            forest.link(u, u + 1);
            forest.cut(u, u + 1);
        }
        stop.store(true, Ordering::Relaxed);
        for handle in resolutions {
            reader_resolutions += handle.join().unwrap();
        }
    });
    let (hits, misses) = forest.read_hint_stats();
    assert_eq!(
        hits + misses,
        reader_resolutions,
        "every resolution records exactly one hit or one miss, \
         retries included"
    );
    assert!(misses > 0, "the churn must force misses");
    assert!(hits > 0, "the stable half must produce hits");
    forest.validate();
}
