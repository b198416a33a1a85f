//! Multi-threaded stress tests for the concurrent dynamic connectivity
//! variants.
//!
//! The strongest checks use *region ownership*: each worker thread operates
//! only on edges inside its own disjoint vertex block and keeps a private
//! sequential oracle for that block, so every one of its own queries has a
//! deterministic expected answer even though other threads are concurrently
//! mutating their blocks through the same shared structure.  A separate
//! reader thread asserts the global invariant that blocks never become
//! connected to each other.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dynconn::RecomputeOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Variants worth stressing concurrently (one per synchronization family);
/// running all thirteen would multiply the runtime without adding coverage.
fn stressed_variants() -> Vec<Variant> {
    vec![
        Variant::CoarseGrained,
        Variant::CoarseNonBlockingReads,
        Variant::FineGrained,
        Variant::FineNonBlockingReads,
        Variant::OurAlgorithm,
        Variant::OurAlgorithmCoarse,
        Variant::ParallelCombining,
        Variant::FlatCombiningNonBlockingReads,
    ]
}

/// Each thread owns a disjoint block of vertices and mirrors its operations
/// in a private oracle; all of its own connectivity queries must match the
/// oracle exactly, because no other thread ever touches its block.
#[test]
fn region_owners_always_agree_with_their_private_oracle() {
    let threads = 3usize;
    let block = 24u32;
    let n = threads as u32 * block;
    let ops_per_thread = 400usize;

    for variant in stressed_variants() {
        let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n as usize));
        std::thread::scope(|s| {
            for t in 0..threads {
                let dc = Arc::clone(&dc);
                s.spawn(move || {
                    let lo = t as u32 * block;
                    let hi = lo + block;
                    let oracle = RecomputeOracle::new(n as usize);
                    let mut rng = StdRng::seed_from_u64(0x5EED ^ t as u64);
                    for step in 0..ops_per_thread {
                        let u = rng.gen_range(lo..hi);
                        let mut v = rng.gen_range(lo..hi);
                        if v == u {
                            v = lo + (v - lo + 1) % block;
                        }
                        match rng.gen_range(0..10) {
                            0..=3 => {
                                dc.add_edge(u, v);
                                oracle.add_edge(u, v);
                            }
                            4..=6 => {
                                dc.remove_edge(u, v);
                                oracle.remove_edge(u, v);
                            }
                            _ => {}
                        }
                        let a = rng.gen_range(lo..hi);
                        let b = rng.gen_range(lo..hi);
                        assert_eq!(
                            dc.connected(a, b),
                            oracle.connected(a, b),
                            "{}: thread {t} step {step} diverged inside its own block",
                            variant.name()
                        );
                    }
                });
            }
        });
        // Blocks stay mutually disconnected.
        for t in 1..threads as u32 {
            assert!(
                !dc.connected(0, t * block),
                "{}: blocks merged across region boundaries",
                variant.name()
            );
        }
    }
}

/// A fixed backbone path is built before the threads start; writers churn
/// edges strictly among the remaining vertices.  Readers assert that the
/// backbone stays connected and that a deliberately isolated vertex never
/// joins it — precisely the "no out-of-thin-air components / no phantom
/// splits" guarantee of the single-writer ETT carried up through the full
/// algorithm.
#[test]
fn readers_never_observe_phantom_splits_or_merges() {
    let n = 96u32;
    let backbone_len = 24u32;
    let isolated = n - 1;

    for variant in stressed_variants() {
        let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n as usize));
        for v in 0..backbone_len - 1 {
            dc.add_edge(v, v + 1);
        }
        let stop = Arc::new(AtomicBool::new(false));
        // Readers that have completed a check. The writers start churning
        // only once both readers are running, so on a host with fewer cores
        // than threads a reader the scheduler starts late still overlaps
        // the churn instead of finding it already over.
        let readers_running = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            // Two readers.
            for r in 0..2u64 {
                let dc = Arc::clone(&dc);
                let stop = Arc::clone(&stop);
                let readers_running = Arc::clone(&readers_running);
                let name = variant.name();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(r);
                    let mut checks = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let a = rng.gen_range(0..backbone_len);
                        let b = rng.gen_range(0..backbone_len);
                        assert!(dc.connected(a, b), "{name}: backbone pair ({a},{b}) split");
                        assert!(
                            !dc.connected(0, isolated),
                            "{name}: isolated vertex joined the backbone"
                        );
                        checks += 1;
                        if checks == 1 {
                            readers_running.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    assert!(checks > 0, "{name}: reader made no progress");
                });
            }
            // Two writers churning the churn zone [backbone_len, n-1).
            for w in 0..2u64 {
                let dc = Arc::clone(&dc);
                let stop = Arc::clone(&stop);
                let readers_running = Arc::clone(&readers_running);
                s.spawn(move || {
                    // Bounded, so a reader that panics on its first check
                    // fails the test instead of hanging it.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while readers_running.load(Ordering::Relaxed) < 2 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    let lo = backbone_len + w as u32 * 30;
                    let hi = lo + 30;
                    let mut rng = StdRng::seed_from_u64(0xBEEF ^ w);
                    for _ in 0..2_000 {
                        let u = rng.gen_range(lo..hi);
                        let mut v = rng.gen_range(lo..hi);
                        if v == u {
                            v = lo + (v - lo + 1) % (hi - lo);
                        }
                        if rng.gen_bool(0.55) {
                            dc.add_edge(u, v);
                        } else {
                            dc.remove_edge(u, v);
                        }
                    }
                    if w == 0 {
                        stop.store(true, Ordering::Relaxed);
                    }
                });
            }
        });
    }
}

/// Concurrent incremental insertion of a connected graph must end fully
/// connected, and concurrent decremental deletion of every edge must end
/// fully disconnected — deterministic end states regardless of interleaving.
#[test]
fn concurrent_incremental_and_decremental_end_states_are_exact() {
    let n = 81usize; // 9x9 grid
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for r in 0..9u32 {
        for c in 0..9u32 {
            let v = r * 9 + c;
            if c + 1 < 9 {
                edges.push((v, v + 1));
            }
            if r + 1 < 9 {
                edges.push((v, v + 9));
            }
        }
    }

    for variant in stressed_variants() {
        // Incremental: 3 threads insert disjoint slices of the edge list.
        let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n));
        std::thread::scope(|s| {
            for t in 0..3usize {
                let dc = Arc::clone(&dc);
                let slice: Vec<(u32, u32)> = edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == t)
                    .map(|(_, &e)| e)
                    .collect();
                s.spawn(move || {
                    for (u, v) in slice {
                        dc.add_edge(u, v);
                    }
                });
            }
        });
        for v in 1..n as u32 {
            assert!(
                dc.connected(0, v),
                "{}: grid not connected after concurrent insertion",
                variant.name()
            );
        }

        // Decremental: remove everything concurrently.
        std::thread::scope(|s| {
            for t in 0..3usize {
                let dc = Arc::clone(&dc);
                let slice: Vec<(u32, u32)> = edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == t)
                    .map(|(_, &e)| e)
                    .collect();
                s.spawn(move || {
                    for (u, v) in slice {
                        dc.remove_edge(u, v);
                    }
                });
            }
        });
        for v in 1..20u32 {
            assert!(
                !dc.connected(0, v),
                "{}: edges survived concurrent decremental run",
                variant.name()
            );
        }
    }
}

/// All threads hammer the *same* small edge set (maximum contention): the
/// structure must neither deadlock nor corrupt itself, and once the dust
/// settles a full add of a spanning path must behave normally.
#[test]
fn high_contention_on_a_shared_edge_set_stays_safe() {
    let n = 16u32;
    let hot_edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)];

    for variant in stressed_variants() {
        let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n as usize));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let dc = Arc::clone(&dc);
                let hot = hot_edges.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..1_500 {
                        let (u, v) = hot[rng.gen_range(0..hot.len())];
                        match rng.gen_range(0..3) {
                            0 => dc.add_edge(u, v),
                            1 => dc.remove_edge(u, v),
                            _ => {
                                let _ = dc.connected(u, v);
                            }
                        }
                    }
                });
            }
        });
        // Quiesced: force a known state and verify exact behaviour.
        for &(u, v) in &hot_edges {
            dc.remove_edge(u, v);
        }
        assert!(!dc.connected(0, 4), "{}", variant.name());
        for &(u, v) in &hot_edges {
            dc.add_edge(u, v);
        }
        assert!(dc.connected(0, 5), "{}", variant.name());
        assert!(!dc.connected(0, 15), "{}", variant.name());
    }
}

/// Read-only concurrency sanity: once the graph is frozen, any number of
/// readers must agree on every answer (and the non-blocking read path must
/// not mutate anything observable).
#[test]
fn frozen_graph_readers_are_deterministic() {
    let n = 128u32;
    let mut rng = StdRng::seed_from_u64(99);
    let edges: Vec<(u32, u32)> = (0..200)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                v = (v + 1) % n;
            }
            (u, v)
        })
        .collect();

    for variant in [
        Variant::CoarseNonBlockingReads,
        Variant::FineNonBlockingReads,
        Variant::OurAlgorithm,
        Variant::FlatCombiningNonBlockingReads,
    ] {
        let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n as usize));
        let oracle = RecomputeOracle::new(n as usize);
        for &(u, v) in &edges {
            dc.add_edge(u, v);
            oracle.add_edge(u, v);
        }
        let expected: Vec<bool> = (0..n).map(|v| oracle.connected(0, v)).collect();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let dc = Arc::clone(&dc);
                let expected = expected.clone();
                let name = variant.name();
                s.spawn(move || {
                    for round in 0..20 {
                        for v in 0..n {
                            assert_eq!(
                                dc.connected(0, v),
                                expected[v as usize],
                                "{name}: round {round}, vertex {v}"
                            );
                        }
                    }
                });
            }
        });
    }
}
