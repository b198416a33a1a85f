//! Bulk and incremental construction agree.
//!
//! Seeded random batches — forests, dense communities, random graphs with
//! isolated vertices, repeated edges and self-loops — are loaded once
//! through `Hdt::bulk_build` and once through sequential `add_edge_locked`.
//! The two structures must export the same `(edge, level)` sets, pass
//! `validate()` and match `RecomputeOracle` on every pair; the bulk-built
//! one must then stay oracle-equal and `validate()`-clean under random
//! churn. A structure churned to three or more levels, exported and
//! restored through `Hdt::bulk_build_levels`, must export the same set.

use dc_graph::Edge;
use dynconn::{DynamicConnectivity, Hdt, RecomputeOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u32 = 48;

/// Every exported edge as `(u, v, level, spanning)`, sorted.
fn export(hdt: &Hdt) -> Vec<(u32, u32, u8, bool)> {
    let (mut spanning, mut nonspanning) = (Vec::new(), Vec::new());
    hdt.export_edges_locked(
        |u, v, level| spanning.push((u, v, level, true)),
        |u, v, level| nonspanning.push((u, v, level, false)),
    );
    spanning.extend(nonspanning);
    spanning.sort_unstable();
    spanning
}

fn assert_matches_oracle(hdt: &Hdt, oracle: &RecomputeOracle, context: &str) {
    for u in 0..N {
        for v in u + 1..N {
            assert_eq!(
                hdt.connected(u, v),
                oracle.connected(u, v),
                "{context}: ({u}, {v})"
            );
        }
    }
}

/// A random spanning tree over a random subset of the vertices.
fn forest(rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut vertices: Vec<u32> = (0..N).filter(|_| rng.gen_range(0..4) != 0).collect();
    for i in (1..vertices.len()).rev() {
        vertices.swap(i, rng.gen_range(0..i + 1));
    }
    (1..vertices.len())
        .map(|i| (vertices[i], vertices[rng.gen_range(0..i)]))
        .collect()
}

/// Dense communities of eight vertices, each pair present with p = 0.7.
fn communities(rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for base in (0..N).step_by(8) {
        for u in base..base + 8 {
            for v in u + 1..base + 8 {
                if rng.gen_range(0..10) < 7 {
                    pairs.push((u, v));
                }
            }
        }
    }
    pairs
}

/// Sparse random pairs over half the vertices (so some stay isolated),
/// with self-loops and repeats in either orientation.
fn random_with_repeats(rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for _ in 0..60 {
        let pick = rng.gen_range(0..10);
        if pick == 0 {
            let u = rng.gen_range(0..N / 2);
            pairs.push((u, u));
        } else if pick < 3 && !pairs.is_empty() {
            let (u, v) = pairs[rng.gen_range(0..pairs.len())];
            pairs.push((v, u));
        } else {
            pairs.push((rng.gen_range(0..N / 2), rng.gen_range(0..N / 2)));
        }
    }
    pairs
}

fn shuffled(mut pairs: Vec<(u32, u32)>, rng: &mut StdRng) -> Vec<(u32, u32)> {
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..i + 1));
    }
    pairs
}

/// `Edge` cannot hold a self-loop; both doors treat one as a no-op.
fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
    pairs
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| Edge::new(u, v))
        .collect()
}

/// Random adds and removes on `hdt` and the oracle, checked as it goes.
fn churn(hdt: &Hdt, oracle: &RecomputeOracle, rng: &mut StdRng, steps: usize, context: &str) {
    for step in 0..steps {
        let (u, v) = (rng.gen_range(0..N), rng.gen_range(0..N));
        if rng.gen_range(0..2) == 0 {
            hdt.add_edge_locked(u, v);
            oracle.add_edge(u, v);
        } else {
            hdt.remove_edge_locked(u, v);
            oracle.remove_edge(u, v);
        }
        if step % 100 == 99 {
            hdt.validate();
            assert_matches_oracle(hdt, oracle, &format!("{context}, churn step {step}"));
        }
    }
}

#[test]
fn bulk_and_sequential_builds_agree() {
    type Generator = fn(&mut StdRng) -> Vec<(u32, u32)>;
    let generators: [(&str, Generator); 3] = [
        ("forest", forest),
        ("communities", communities),
        ("random", random_with_repeats),
    ];
    for seed in 0..12u64 {
        for (name, generate) in generators {
            let context = format!("{name}, seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs = shuffled(generate(&mut rng), &mut rng);

            let bulk = Hdt::new(N as usize);
            let mut rejected = Vec::new();
            let added = bulk.bulk_build(&edges(&pairs), &mut rejected);
            assert!(rejected.is_empty(), "{context}: nothing is capped");

            let sequential = Hdt::new(N as usize);
            let oracle = RecomputeOracle::new(N as usize);
            let mut sequential_added = 0;
            for &(u, v) in &pairs {
                sequential_added += usize::from(sequential.add_edge_locked(u, v));
                oracle.add_edge(u, v);
            }
            assert_eq!(added, sequential_added, "{context}: edges added");
            assert_eq!(export(&bulk), export(&sequential), "{context}: exports");
            assert_eq!(bulk.stats(), sequential.stats(), "{context}: statistics");
            bulk.validate();
            sequential.validate();
            assert_matches_oracle(&bulk, &oracle, &context);
            assert_matches_oracle(&sequential, &oracle, &context);

            churn(&bulk, &oracle, &mut rng, 300, &context);
        }
    }
}

#[test]
fn multi_level_export_restores_to_the_same_set() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sampling off: every failed replacement candidate is promoted, so
        // churn on dense communities climbs levels quickly.
        let live = Hdt::with_sampling(N as usize, 0);
        let oracle = RecomputeOracle::new(N as usize);
        let pairs = communities(&mut rng);
        live.bulk_build(&edges(&pairs), &mut Vec::new());
        for &(u, v) in &pairs {
            oracle.add_edge(u, v);
        }
        let mut rounds = 0;
        while live.materialized_forest_levels() < 3 {
            churn(&live, &oracle, &mut rng, 100, &format!("seed {seed}"));
            rounds += 1;
            assert!(rounds < 100, "seed {seed}: churn never reached level 2");
        }

        let (mut spanning, mut nonspanning) = (Vec::new(), Vec::new());
        live.export_edges_locked(
            |u, v, level| spanning.push((u, v, level)),
            |u, v, level| nonspanning.push((u, v, level)),
        );
        assert!(
            spanning.iter().any(|e| e.2 >= 2),
            "seed {seed}: no spanning edge above level 1"
        );
        let restored = Hdt::new(N as usize);
        restored.bulk_build_levels(&spanning, &nonspanning);
        assert_eq!(export(&restored), export(&live), "seed {seed}: exports");
        restored.validate();
        assert_matches_oracle(&restored, &oracle, &format!("seed {seed}, restored"));
        churn(
            &restored,
            &oracle,
            &mut rng,
            200,
            &format!("seed {seed}, restored"),
        );
    }
}
