//! Differential tests of the root-hint read fast path against the BFS
//! oracle, across every algorithm variant (the paper's thirteen plus the
//! `dc_batch` engine), under churn.
//!
//! The hint cache is exercised in the two regimes that matter:
//!
//! * **concurrently** — reader threads hammer `connected` while a writer
//!   churns the structure, so validations race with version bumps
//!   mid-flight (answers on deterministically stable pairs are asserted
//!   exactly);
//! * **across churn rounds** — the same structure is queried, churned, and
//!   queried again, so the quiescent differential passes run against a
//!   cache full of *stale* hints from the previous round, not a cold one.
//!   Every stale hint must fail validation and re-climb to the truth.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dc_obs::Counter;
use dynconn::RecomputeOracle;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Vertices that churn (edges are drawn from this range only).
const CHURN: u32 = 32;
/// Stable control vertices `CHURN..CHURN + STABLE`, preloaded as a path and
/// never churned: their connectivity (and their disconnection from the
/// churned half) is deterministic at every instant.
const STABLE: u32 = 8;

/// One churn step: an add or remove of pool edge `index % pool.len()`.
#[derive(Clone, Debug)]
struct ChurnOp {
    add: bool,
    index: usize,
}

fn churn_strategy() -> impl Strategy<Value = Vec<ChurnOp>> {
    proptest::collection::vec(
        (any::<bool>(), any::<usize>()).prop_map(|(add, index)| ChurnOp { add, index }),
        40..120,
    )
}

/// A deterministic edge pool over the churned vertices: a cycle, its
/// chords, and a few parallel-ish extras — dense enough that removals hit
/// both spanning and non-spanning edges (so hints see replacement searches
/// *and* cheap non-structural churn).
fn edge_pool() -> Vec<(u32, u32)> {
    let mut pool = Vec::new();
    for v in 0..CHURN {
        pool.push((v, (v + 1) % CHURN));
        pool.push((v, (v + 5) % CHURN));
        pool.push((v, (v + 13) % CHURN));
    }
    pool
}

/// Runs `ops` against `dc` and the oracle from one writer thread while
/// reader threads exercise the hint cache concurrently, then runs a
/// quiescent multi-threaded differential sweep. Returns with `dc` and
/// `oracle` in agreement.
fn churn_round(
    dc: &dyn DynamicConnectivity,
    oracle: &RecomputeOracle,
    pool: &[(u32, u32)],
    ops: &[ChurnOp],
    round: u64,
) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Readers: exact asserts on deterministic pairs, plus unchecked
        // traffic over the churned half (those answers race with the writer
        // and are validated by the quiescent sweep below).
        for t in 0..2u64 {
            let stop = &stop;
            scope.spawn(move || {
                let mut x = (round + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (t + 1);
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while !stop.load(Ordering::Relaxed) {
                    let s1 = CHURN + (rand() % STABLE as u64) as u32;
                    let s2 = CHURN + (rand() % STABLE as u64) as u32;
                    assert!(dc.connected(s1, s2), "stable path split");
                    let c = (rand() % CHURN as u64) as u32;
                    assert!(!dc.connected(s1, c), "churned half reached the stable path");
                    let c2 = (rand() % CHURN as u64) as u32;
                    let _ = std::hint::black_box(dc.connected(c, c2));
                }
            });
        }
        for op in ops {
            let (u, v) = pool[op.index % pool.len()];
            if op.add {
                dc.add_edge(u, v);
                oracle.add_edge(u, v);
            } else {
                dc.remove_edge(u, v);
                oracle.remove_edge(u, v);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiescent differential: several reader threads sweep random pairs
    // (plus an exhaustive pass over a vertex band) against the oracle. The
    // hint slots still hold whatever the concurrent phase left in them —
    // including hints installed before this round's churn — so stale-hint
    // validation is on the hook for every answer.
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            scope.spawn(move || {
                let mut x = (round + 7).wrapping_mul(0xD134_2543_DE82_EF95) ^ (t + 1);
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let n = (CHURN + STABLE) as u64;
                for _ in 0..120 {
                    let a = (rand() % n) as u32;
                    let b = (rand() % n) as u32;
                    assert_eq!(
                        dc.connected(a, b),
                        oracle.connected(a, b),
                        "round {round}: connected({a}, {b}) diverged from the oracle"
                    );
                }
                // Repeat a band twice so the second pass reads hints the
                // first pass just installed.
                for _ in 0..2 {
                    for a in 0..8u32 {
                        for b in 0..n as u32 {
                            assert_eq!(
                                dc.connected(a, b),
                                oracle.connected(a, b),
                                "round {round}: repeat connected({a}, {b}) diverged"
                            );
                        }
                    }
                }
            });
        }
    });
}

/// The hint cache must actually serve reads: on variants 8 (fine-grained,
/// non-blocking reads) and 9 (the paper's algorithm), a quiescent sweep over
/// pairs whose hints the previous sweep installed records hits. A cache that
/// only ever misses still answers correctly, so the differential below
/// cannot catch it.
#[test]
fn warm_quiescent_sweep_hits_the_hint_cache_on_variants_8_and_9() {
    let n = CHURN + STABLE;
    for variant in Variant::all_extended()
        .into_iter()
        .filter(|v| matches!(v.paper_number(), 8 | 9))
    {
        let dc = variant.build(n as usize);
        for (u, v) in edge_pool() {
            dc.add_edge(u, v);
        }
        for v in CHURN..n - 1 {
            dc.add_edge(v, v + 1);
        }
        let sweep = || {
            for a in 0..n {
                for b in 0..n {
                    std::hint::black_box(dc.connected(a, b));
                }
            }
        };
        sweep();
        let tally = dc.tally().expect("hinted variant");
        let cold_hits = tally.get(Counter::HintHits);
        sweep();
        let (warm_hits, warm_misses) =
            (tally.get(Counter::HintHits), tally.get(Counter::HintMisses));
        assert!(
            warm_hits > cold_hits,
            "{}: the warm sweep recorded no hint hits ({warm_hits} hits, {warm_misses} misses in total)",
            variant.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every variant agrees with the oracle through three churn rounds with
    /// concurrent hinted readers (see the module docs for what each round
    /// exercises).
    #[test]
    fn hinted_reads_match_oracle_under_churn_for_all_variants(
        rounds in proptest::collection::vec(churn_strategy(), 3..4),
        case_seed in any::<u64>(),
    ) {
        let pool = edge_pool();
        let n = (CHURN + STABLE) as usize;
        for variant in Variant::all_extended() {
            let dc = variant.build(n);
            let oracle = RecomputeOracle::new(n);
            // The stable control path (never touched again).
            for v in CHURN..CHURN + STABLE - 1 {
                dc.add_edge(v, v + 1);
                oracle.add_edge(v, v + 1);
            }
            for (i, ops) in rounds.iter().enumerate() {
                churn_round(
                    dc.as_ref(),
                    &oracle,
                    &pool,
                    ops,
                    case_seed ^ (i as u64) << 8,
                );
            }
            // The lock-free-read variants must actually have gone through
            // the cache (hits or misses — under churn both occur).
            if let Some(tally) = dc.tally() {
                let (hits, misses) = (tally.get(Counter::HintHits), tally.get(Counter::HintMisses));
                let lock_free_reads = matches!(
                    variant.paper_number(),
                    3 | 5 | 8 | 9 | 10 | 11 | 13 | 14
                );
                if lock_free_reads {
                    prop_assert!(
                        hits + misses > 0,
                        "{}: hint cache never consulted",
                        variant.name()
                    );
                }
            }
        }
    }
}
