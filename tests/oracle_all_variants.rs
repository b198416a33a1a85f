//! Sequential oracle comparison for every algorithm variant of the paper's
//! evaluation (Section 5.2).
//!
//! All fourteen variants (thirteen paper combinations plus the batch
//! engine) are driven through the same randomized operation sequences as a
//! breadth-first-search oracle ([`dynconn::RecomputeOracle`]); every
//! `connected` answer must agree, and failures name the variant. The
//! sequences are generated over several graph shapes that
//! mirror the paper's Table 1 catalog: sparse (|E| = |V|), dense
//! (|E| = |V|·log|V|), multi-component, and path/star-like adversarial
//! shapes.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dynconn::RecomputeOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds every variant over `n` vertices, the batch engine (variant 14)
/// included, labelled by name for failure messages.
fn all_variants(n: usize) -> Vec<(Box<dyn DynamicConnectivity>, String)> {
    Variant::all_extended()
        .into_iter()
        .map(|variant| (variant.build(n), variant.name().to_string()))
        .collect()
}

/// Drives `dc` and `oracle` through `ops` random operations over `n`
/// vertices, with edges drawn from the `pool`, and asserts query agreement
/// after every operation.
#[allow(clippy::too_many_arguments)]
fn drive(
    dc: &dyn DynamicConnectivity,
    label: &str,
    oracle: &RecomputeOracle,
    n: u32,
    pool: &[(u32, u32)],
    ops: usize,
    seed: u64,
    remove_prob: f64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..ops {
        let roll: f64 = rng.gen();
        if roll < remove_prob {
            let &(u, v) = &pool[rng.gen_range(0..pool.len())];
            dc.remove_edge(u, v);
            oracle.remove_edge(u, v);
        } else {
            let &(u, v) = &pool[rng.gen_range(0..pool.len())];
            dc.add_edge(u, v);
            oracle.add_edge(u, v);
        }
        // Probe a handful of random pairs plus the endpoints just touched.
        for _ in 0..3 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            assert_eq!(
                dc.connected(a, b),
                oracle.connected(a, b),
                "{label}: step {step}: connected({a}, {b}) diverged from the oracle"
            );
        }
    }
}

/// Builds an edge pool resembling a sparse Erdős–Rényi graph (|E| ≈ |V|).
fn sparse_pool(n: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as usize)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            (u, v)
        })
        .collect()
}

/// Builds an edge pool resembling a dense graph (|E| ≈ 6·|V|), where most
/// additions are non-spanning and the lock-free fast path is exercised.
fn dense_pool(n: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..6 * n as usize)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            (u, v)
        })
        .collect()
}

/// Edge pool confined to `k` disjoint vertex blocks: components can never
/// merge across blocks, which stresses the per-component fine-grained locks.
fn multi_component_pool(n: u32, k: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let block = n / k;
    (0..3 * n as usize)
        .map(|_| {
            let b = rng.gen_range(0..k);
            let lo = b * block;
            let hi = (lo + block).min(n);
            let u = rng.gen_range(lo..hi);
            let mut v = rng.gen_range(lo..hi);
            if v == u {
                v = lo + (v - lo + 1) % (hi - lo);
            }
            (u, v)
        })
        .collect()
}

/// A long path plus a few chords: spanning-edge removals here almost always
/// need a replacement search across several levels.
fn path_with_chords_pool(n: u32) -> Vec<(u32, u32)> {
    let mut pool: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    for v in (0..n - 4).step_by(5) {
        pool.push((v, v + 4));
    }
    for v in (0..n / 2).step_by(7) {
        pool.push((v, n - 1 - v));
    }
    pool
}

#[test]
fn registry_covers_all_fourteen_variants() {
    let labels: Vec<String> = all_variants(8).into_iter().map(|(_, l)| l).collect();
    assert_eq!(labels.len(), 14, "{labels:?}");
    assert!(labels.last().is_some_and(|l| l.starts_with("(14)")));
}

#[test]
fn all_variants_agree_with_oracle_on_sparse_graph() {
    let n = 64u32;
    let pool = sparse_pool(n, 0xA11CE);
    for (dc, label) in all_variants(n as usize) {
        let oracle = RecomputeOracle::new(n as usize);
        drive(dc.as_ref(), &label, &oracle, n, &pool, 600, 7, 0.35);
    }
}

#[test]
fn all_variants_agree_with_oracle_on_dense_graph() {
    let n = 48u32;
    let pool = dense_pool(n, 0xD0C5);
    for (dc, label) in all_variants(n as usize) {
        let oracle = RecomputeOracle::new(n as usize);
        drive(dc.as_ref(), &label, &oracle, n, &pool, 600, 11, 0.40);
    }
}

#[test]
fn all_variants_agree_with_oracle_on_multi_component_graph() {
    let n = 80u32;
    let pool = multi_component_pool(n, 5, 0xC0FFEE);
    for (dc, label) in all_variants(n as usize) {
        let oracle = RecomputeOracle::new(n as usize);
        drive(dc.as_ref(), &label, &oracle, n, &pool, 600, 13, 0.45);
        // Cross-block pairs can never be connected.
        assert!(!dc.connected(0, n - 1), "{label}");
    }
}

#[test]
fn all_variants_agree_with_oracle_on_path_with_chords() {
    let n = 60u32;
    let pool = path_with_chords_pool(n);
    for (dc, label) in all_variants(n as usize) {
        let oracle = RecomputeOracle::new(n as usize);
        // Start fully loaded so early removals hit spanning edges.
        for &(u, v) in &pool {
            dc.add_edge(u, v);
            oracle.add_edge(u, v);
        }
        drive(dc.as_ref(), &label, &oracle, n, &pool, 700, 17, 0.65);
    }
}

#[test]
fn all_variants_survive_add_remove_cycles_of_the_same_edge() {
    // Repeatedly toggling one spanning edge stresses the status state
    // machine (INITIAL -> SPANNING -> removed -> INITIAL ...) and the root
    // version protocol; the answer must flip in lock step.
    for (dc, label) in all_variants(8) {
        dc.add_edge(0, 1);
        dc.add_edge(2, 3);
        for round in 0..50 {
            dc.add_edge(1, 2);
            assert!(dc.connected(0, 3), "{label} round {round}");
            dc.remove_edge(1, 2);
            assert!(!dc.connected(0, 3), "{label} round {round}");
        }
    }
}

#[test]
fn all_variants_handle_star_center_removal() {
    // A star: removing the centre's spanning edges one by one must shrink
    // the component exactly edge by edge (replacement search never finds a
    // substitute in a tree).
    let n = 40u32;
    for (dc, label) in all_variants(n as usize) {
        for v in 1..n {
            dc.add_edge(0, v);
        }
        for v in 1..n {
            assert!(dc.connected(v, (v % (n - 1)) + 1), "{label}");
        }
        for v in 1..n {
            dc.remove_edge(0, v);
            assert!(!dc.connected(0, v), "{label}");
            if v + 1 < n {
                assert!(dc.connected(0, v + 1), "{label}");
            }
        }
    }
}

#[test]
fn all_variants_handle_two_cliques_with_a_bridge() {
    // Two K5 cliques joined by one bridge: the bridge is the only spanning
    // edge between the halves, every clique edge is non-spanning, and the
    // bridge removal must split exactly once (no replacement exists).
    let k = 5u32;
    for (dc, label) in all_variants(2 * k as usize) {
        for a in 0..k {
            for b in (a + 1)..k {
                dc.add_edge(a, b);
                dc.add_edge(k + a, k + b);
            }
        }
        dc.add_edge(0, k);
        assert!(dc.connected(1, k + 1), "{label}");
        dc.remove_edge(0, k);
        assert!(!dc.connected(1, k + 1), "{label}");
        assert!(dc.connected(1, 3), "{label}");
        assert!(dc.connected(k + 1, k + 3), "{label}");
        // Clique edges survive: removing one intra-clique edge keeps the
        // clique connected through the remaining edges.
        dc.remove_edge(1, 3);
        assert!(dc.connected(1, 3), "{label}");
    }
}
