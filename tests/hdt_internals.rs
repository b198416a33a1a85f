//! White-box tests of the HDT level structure through `dynconn::Hdt`'s
//! public API: the invariants of Section 4.1 (nested spanning forests,
//! component-size bounds per level) and the internal `validate()` checks are
//! asserted after realistic operation batches.

use dc_graph::generators;
use dynconn::hdt::default_sampling_limit;
use dynconn::Hdt;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Loads `edges` into `hdt` (single-writer, under the coarse lock path
/// used by every blocking variant).
fn load(hdt: Hdt, edges: &[(u32, u32)]) -> Hdt {
    for &(u, v) in edges {
        hdt.with_components_locked(u, v, || {
            hdt.add_edge_locked(u, v);
        });
    }
    hdt
}

fn random_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
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

/// Invariant: the spanning forests are nested, `F0 ⊇ F1 ⊇ … ⊇ F_lmax`
/// (checked edge-wise through `has_tree_edge`).
fn assert_nested_forests(hdt: &Hdt, edges: &[(u32, u32)]) {
    for level in 1..hdt.num_levels() {
        for &(u, v) in edges {
            if hdt.forest(level).has_tree_edge(u, v) {
                assert!(
                    hdt.forest(level - 1).has_tree_edge(u, v),
                    "edge ({u}, {v}) is spanning at level {level} but missing at level {}",
                    level - 1
                );
            }
        }
    }
}

/// Invariant: every component of `G_i` has at most `n / 2^i` vertices.
fn assert_component_size_bounds(hdt: &Hdt) {
    let n = hdt.num_vertices() as u32;
    for level in 0..hdt.num_levels() {
        let bound = (n >> level).max(1);
        for v in 0..n {
            let size = hdt.forest(level).component_size(v);
            assert!(
                size <= bound.max(2),
                "level {level}: component of vertex {v} has {size} vertices, bound {bound}"
            );
        }
    }
}

#[test]
fn level_structure_invariants_hold_after_random_churn() {
    let n = 96u32;
    let pool = random_edges(n, 250, 0x11);
    // Eager promotion (budget 0) is what puts edges on upper levels here:
    // the sample pass finds every replacement of this small graph.
    for budget in [0, default_sampling_limit(n as usize)] {
        let hdt = load(Hdt::with_sampling(n as usize, budget), &pool);
        let mut rng = StdRng::seed_from_u64(0x22);
        // Churn: remove and re-add random pool edges to force replacement
        // searches and level promotions.
        for _ in 0..600 {
            let (u, v) = pool[rng.gen_range(0..pool.len())];
            hdt.with_components_locked(u, v, || {
                if rng.gen_bool(0.5) {
                    hdt.remove_edge_locked(u, v);
                } else {
                    hdt.add_edge_locked(u, v);
                }
            });
        }
        if budget == 0 {
            assert!(hdt.stats().promotions > 0 && hdt.materialized_forest_levels() > 1);
        }
        hdt.validate();
        assert_nested_forests(&hdt, &pool);
        assert_component_size_bounds(&hdt);
    }
}

#[test]
fn locked_and_lock_free_reads_agree_when_quiescent() {
    let n = 80u32;
    let pool = random_edges(n, 160, 0x33);
    let hdt = load(Hdt::new(n as usize), &pool);
    for u in 0..n {
        for step in 1..4 {
            let v = (u + step * 17) % n;
            assert_eq!(
                hdt.connected(u, v),
                hdt.with_components_locked(u, v, || hdt.connected_locked(u, v)),
                "lock-free and locked reads disagree on ({u}, {v})"
            );
        }
    }
}

#[test]
fn duplicate_adds_and_absent_removes_report_false() {
    let hdt = Hdt::new(8);
    hdt.with_components_locked(0, 1, || {
        assert!(hdt.add_edge_locked(0, 1), "first addition must succeed");
        assert!(
            !hdt.add_edge_locked(0, 1),
            "duplicate addition must be a no-op"
        );
    });
    hdt.with_components_locked(2, 3, || {
        assert!(
            !hdt.remove_edge_locked(2, 3),
            "removing an absent edge must be a no-op"
        );
    });
    hdt.with_components_locked(0, 1, || {
        assert!(hdt.remove_edge_locked(0, 1));
        assert!(
            !hdt.remove_edge_locked(0, 1),
            "double removal must be a no-op"
        );
    });
    assert!(!hdt.connected(0, 1));
    hdt.validate();
}

#[test]
fn has_edge_tracks_the_true_edge_set() {
    let n = 32u32;
    let pool = random_edges(n, 80, 0x44);
    let hdt = Hdt::new(n as usize);
    let mut present = std::collections::HashSet::new();
    let mut rng = StdRng::seed_from_u64(0x55);
    for _ in 0..400 {
        let (u, v) = pool[rng.gen_range(0..pool.len())];
        let key = (u.min(v), u.max(v));
        hdt.with_components_locked(u, v, || {
            if rng.gen_bool(0.5) {
                hdt.add_edge_locked(u, v);
                present.insert(key);
            } else {
                hdt.remove_edge_locked(u, v);
                present.remove(&key);
            }
        });
    }
    for &(u, v) in &pool {
        let key = (u.min(v), u.max(v));
        assert_eq!(
            hdt.has_edge(u, v),
            present.contains(&key),
            "has_edge({u}, {v}) does not match the reference edge set"
        );
    }
}

#[test]
fn component_size_matches_reachable_set() {
    let graph = generators::random_components(90, 200, 3, 0x66);
    let hdt = Hdt::new(graph.num_vertices());
    for e in graph.edges() {
        hdt.with_components_locked(e.u(), e.v(), || {
            hdt.add_edge_locked(e.u(), e.v());
        });
    }
    // Reference reachability by BFS over the graph's adjacency.
    let adjacency = graph.adjacency();
    for start in (0..graph.num_vertices() as u32).step_by(9) {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(x) = stack.pop() {
            for &y in &adjacency[x as usize] {
                if seen.insert(y) {
                    stack.push(y);
                }
            }
        }
        assert_eq!(
            hdt.component_size(start),
            seen.len(),
            "component size of vertex {start} diverges from BFS"
        );
    }
}

#[test]
fn sampling_heuristic_does_not_change_answers() {
    // The sampling fast path (Section 5.2, "Sampling") is a performance
    // heuristic only: at every budget, from off (0) through the default
    // k(n) to one that outlasts most smaller sides (64), connectivity
    // answers must match, and the structure must stay valid throughout,
    // not just at the end.
    let n = 64u32;
    let pool = random_edges(n, 180, 0x77);
    let budgets = [0, 1, 4, 16, default_sampling_limit(n as usize), 64];
    let hdts: Vec<Hdt> = budgets
        .iter()
        .map(|&budget| Hdt::with_sampling(n as usize, budget))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x88);
    for step in 1..=700 {
        let (u, v) = pool[rng.gen_range(0..pool.len())];
        let add = rng.gen_bool(0.55);
        for hdt in &hdts {
            hdt.with_components_locked(u, v, || {
                if add {
                    hdt.add_edge_locked(u, v);
                } else {
                    hdt.remove_edge_locked(u, v);
                }
            });
        }
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let expected = hdts[0].connected(a, b);
        for (hdt, budget) in hdts.iter().zip(budgets) {
            assert_eq!(
                hdt.connected(a, b),
                expected,
                "budget {budget} changed the connectivity answer for ({a}, {b})"
            );
        }
        if step % 50 == 0 {
            for hdt in &hdts {
                hdt.validate();
            }
        }
    }
}

/// A road-churn-shaped history: a 96×96 grid, 70% of its edges preloaded,
/// then 20k updates that remove a random present edge or add back a random
/// absent one. The default budget must answer like budget 16 and like
/// eager promotion, stay valid, and spend no more budgets, promote no more
/// edges and build no more levels than budget 16.
#[test]
fn the_default_budget_promotes_no_more_than_sixteen_on_grid_churn() {
    let side = 96u32;
    let n = (side * side) as usize;
    let grid: Vec<(u32, u32)> = generators::grid(side as usize, side as usize)
        .edges()
        .iter()
        .map(|e| e.endpoints())
        .collect();
    let mut rng = StdRng::seed_from_u64(0x96);
    let mut order: Vec<usize> = (0..grid.len()).collect();
    order.shuffle(&mut rng);
    let mut absent = order.split_off(grid.len() * 7 / 10);
    let mut present = order;
    let preload: Vec<(u32, u32)> = present.iter().map(|&i| grid[i]).collect();
    let [default, sixteen, eager] = [
        Hdt::new(n),
        Hdt::with_sampling(n, 16),
        Hdt::with_sampling(n, 0),
    ]
    .map(|hdt| load(hdt, &preload));
    let hdts = [&default, &sixteen, &eager];
    for step in 1..=20_000 {
        let adding = rng.gen_bool(0.5);
        let (from, to) = if adding {
            (&mut absent, &mut present)
        } else {
            (&mut present, &mut absent)
        };
        let edge = from.swap_remove(rng.gen_range(0..from.len()));
        to.push(edge);
        let (u, v) = grid[edge];
        for hdt in hdts {
            hdt.with_components_locked(u, v, || {
                if adding {
                    assert!(hdt.add_edge_locked(u, v));
                } else {
                    assert!(hdt.remove_edge_locked(u, v));
                }
            });
        }
        let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        let expected = eager.connected(a, b);
        assert_eq!(default.connected(a, b), expected, "step {step}: ({a}, {b})");
        assert_eq!(sixteen.connected(a, b), expected, "step {step}: ({a}, {b})");
    }
    for hdt in hdts {
        hdt.validate();
    }
    let (ours, theirs) = (default.stats(), sixteen.stats());
    assert!(
        theirs.sample_budgets_spent > 0,
        "budget 16 must run out here"
    );
    assert!(ours.sample_budgets_spent <= theirs.sample_budgets_spent);
    assert!(ours.promotions <= theirs.promotions);
    assert!(default.materialized_forest_levels() <= sixteen.materialized_forest_levels());
}

#[test]
fn stats_snapshot_rates_are_well_formed() {
    let n = 50u32;
    let pool = random_edges(n, 300, 0x99);
    let hdt = load(Hdt::new(n as usize), &pool);
    let mut rng = StdRng::seed_from_u64(0xAA);
    for _ in 0..300 {
        let (u, v) = pool[rng.gen_range(0..pool.len())];
        hdt.with_components_locked(u, v, || {
            if rng.gen_bool(0.5) {
                hdt.remove_edge_locked(u, v);
            } else {
                hdt.add_edge_locked(u, v);
            }
        });
    }
    let stats = hdt.stats();
    assert!((0.0..=100.0).contains(&stats.non_spanning_addition_rate()));
    assert!((0.0..=100.0).contains(&stats.non_spanning_removal_rate()));
}

#[test]
fn number_of_levels_is_logarithmic_in_n() {
    for n in [2usize, 3, 4, 10, 100, 1_000, 10_000] {
        let hdt = Hdt::new(n);
        let levels = hdt.num_levels();
        let lmax = (n as f64).log2().floor() as usize;
        assert!(
            levels >= lmax.max(1) && levels <= lmax + 2,
            "n = {n}: got {levels} levels, expected about ⌊log2 n⌋ + 1 = {}",
            lmax + 1
        );
    }
}

#[test]
fn worst_case_path_breaks_down_to_singletons() {
    // A path has no replacement edges at all: every removal is a real split,
    // exercising the full (unsuccessful) replacement search at every level.
    let n = 128u32;
    let hdt = Hdt::new(n as usize);
    for v in 0..n - 1 {
        hdt.with_components_locked(v, v + 1, || {
            hdt.add_edge_locked(v, v + 1);
        });
    }
    assert_eq!(hdt.component_size(0), n as usize);
    // Remove from the middle outwards.
    for v in 0..n - 1 {
        hdt.with_components_locked(v, v + 1, || {
            hdt.remove_edge_locked(v, v + 1);
        });
        assert!(!hdt.connected(v, v + 1));
    }
    for v in 0..n {
        assert_eq!(hdt.component_size(v), 1, "vertex {v} should be isolated");
    }
    hdt.validate();
}
