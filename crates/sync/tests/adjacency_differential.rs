//! Differential property tests: [`AdjacencyStore`] must agree with a plain
//! counted-map multiset oracle under arbitrary sequences of `add` /
//! `remove` / `contains` / `pop` / `retain` / visit operations, including
//! duplicate-neighbor multiplicity semantics. Neighbor ids are drawn from a
//! small range and most operations are additions, so slots hold repeated
//! ids and cross the inline capacity into a spilled table often.

use dc_sync::AdjacencyStore;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

const LEVELS: usize = 2;
const VERTICES: u32 = 4;
/// A small neighbor domain so copies (multiplicity > 1) are common.
const DOMAIN: u32 = 12;

/// The oracle: one counted map per slot.
#[derive(Default)]
struct MultiSet(HashMap<u32, usize>);

impl MultiSet {
    fn add(&mut self, x: u32) {
        *self.0.entry(x).or_insert(0) += 1;
    }

    fn remove(&mut self, x: u32) -> bool {
        match self.0.get_mut(&x) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.0.remove(&x);
                }
                true
            }
            None => false,
        }
    }

    fn count(&self, x: u32) -> usize {
        self.0.get(&x).copied().unwrap_or(0)
    }

    fn len(&self) -> usize {
        self.0.values().sum()
    }

    fn distinct(&self) -> HashSet<u32> {
        self.0.keys().copied().collect()
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Add(usize, u32, u32),
    Remove(usize, u32, u32),
    Contains(usize, u32, u32),
    Count(usize, u32, u32),
    Len(usize, u32),
    Pop(usize, u32),
    Visit(usize, u32),
    RetainEven(usize, u32),
}

/// Operations weighted toward additions (6 in 17) and removals (3 in 17),
/// so slots fill past the inline capacity and hold repeated neighbors.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..17, 0..LEVELS, 0..VERTICES, 0..DOMAIN).prop_map(|(k, l, v, x)| match k {
        0..=5 => Op::Add(l, v, x),
        6..=8 => Op::Remove(l, v, x),
        9 => Op::Contains(l, v, x),
        10 => Op::Count(l, v, x),
        11 => Op::Len(l, v),
        12 | 13 => Op::Pop(l, v),
        14 | 15 => Op::Visit(l, v),
        _ => Op::RetainEven(l, v),
    })
}

/// One oracle multiset per (level, vertex) slot.
struct Oracle {
    slots: Vec<MultiSet>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            slots: (0..LEVELS * VERTICES as usize)
                .map(|_| MultiSet::default())
                .collect(),
        }
    }

    fn slot(&mut self, level: usize, vertex: u32) -> &mut MultiSet {
        &mut self.slots[level * VERTICES as usize + vertex as usize]
    }
}

/// The distinct neighbors one visit of the slot yields, checking that a
/// quiescent visit yields each of them exactly once.
fn visit(store: &AdjacencyStore, level: usize, vertex: u32) -> HashSet<u32> {
    let mut seen = Vec::new();
    let _ = store.for_each_edge(level, vertex, |x| {
        seen.push(x);
        ControlFlow::Continue(())
    });
    let distinct: HashSet<u32> = seen.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        seen.len(),
        "a quiescent visit repeated a neighbor"
    );
    distinct
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Sequential differential run: after every operation the store and the
    /// oracle agree on membership, multiplicity, slot sizes and visit sets.
    #[test]
    fn store_matches_multiset_oracle(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let store = AdjacencyStore::new(LEVELS, VERTICES as usize);
        let mut oracle = Oracle::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Add(l, v, x) => {
                    store.add(l, v, x);
                    oracle.slot(l, v).add(x);
                }
                Op::Remove(l, v, x) => {
                    let got = store.remove(l, v, x);
                    let want = oracle.slot(l, v).remove(x);
                    prop_assert_eq!(got, want, "remove diverged at step {}", step);
                }
                Op::Contains(l, v, x) => {
                    prop_assert_eq!(
                        store.contains(l, v, x),
                        oracle.slot(l, v).count(x) > 0,
                        "contains diverged at step {}", step
                    );
                }
                Op::Count(l, v, x) => {
                    prop_assert_eq!(
                        store.count(l, v, x) as usize,
                        oracle.slot(l, v).count(x),
                        "count diverged at step {}", step
                    );
                }
                Op::Len(l, v) => {
                    let want = oracle.slot(l, v);
                    prop_assert_eq!(store.len(l, v), want.len());
                    prop_assert_eq!(store.distinct_len(l, v), want.distinct().len());
                    prop_assert_eq!(store.is_empty(l, v), want.len() == 0);
                }
                Op::Pop(l, v) => {
                    // `pop` removes one copy of an arbitrary neighbor; mirror
                    // the exact neighbor it chose into the oracle.
                    match store.pop(l, v) {
                        Some(x) => {
                            prop_assert!(
                                oracle.slot(l, v).remove(x),
                                "store popped {} the oracle does not hold", x
                            );
                        }
                        None => prop_assert_eq!(oracle.slot(l, v).len(), 0),
                    }
                }
                Op::Visit(l, v) => {
                    prop_assert_eq!(
                        visit(&store, l, v),
                        oracle.slot(l, v).distinct(),
                        "visit diverged at step {}", step
                    );
                }
                Op::RetainEven(l, v) => {
                    let want = oracle.slot(l, v);
                    let mut asked = Vec::new();
                    store.retain(l, v, |x, copies| {
                        asked.push((x, copies as usize));
                        x % 2 == 0
                    });
                    for &(x, copies) in &asked {
                        prop_assert_eq!(copies, want.count(x), "retain count of {}", x);
                    }
                    prop_assert_eq!(asked.len(), want.distinct().len(), "retain asked twice");
                    want.0.retain(|x, _| x % 2 == 0);
                }
            }
        }
        // Final full sweep over every slot.
        for l in 0..LEVELS {
            for v in 0..VERTICES {
                prop_assert_eq!(store.len(l, v), oracle.slot(l, v).len());
                for x in 0..DOMAIN {
                    prop_assert_eq!(
                        store.count(l, v, x) as usize,
                        oracle.slot(l, v).count(x),
                        "final count of {} diverged in slot ({}, {})", x, l, v
                    );
                }
            }
        }
    }

    /// Duplicate-heavy runs: multiplicities stay exact through interleaved
    /// duplicate adds and partial removes on one slot, on both sides of the
    /// spill boundary.
    #[test]
    fn duplicate_multiplicity_semantics(
        adds in proptest::collection::vec(0u32..4, 1..60),
        removes in proptest::collection::vec(0u32..4, 1..60),
    ) {
        let store = AdjacencyStore::new(1, 1);
        let mut oracle = MultiSet::default();
        for &x in &adds {
            store.add(0, 0, x);
            oracle.add(x);
        }
        for &x in &removes {
            prop_assert_eq!(store.remove(0, 0, x), oracle.remove(x));
        }
        for x in 0u32..4 {
            prop_assert_eq!(store.count(0, 0, x) as usize, oracle.count(x));
        }
        prop_assert_eq!(store.len(0, 0), oracle.len());
        prop_assert_eq!(visit(&store, 0, 0), oracle.distinct());
    }
}

/// The oracle itself: copies are counted and removal takes one copy.
#[test]
fn oracle_add_remove_counts() {
    let mut s = MultiSet::default();
    assert_eq!(s.len(), 0);
    s.add(7);
    s.add(7);
    s.add(9);
    assert_eq!((s.count(7), s.len(), s.distinct().len()), (2, 3, 2));
    assert!(s.remove(7));
    assert_eq!(s.count(7), 1);
    assert!(s.remove(7));
    assert!(!s.remove(7));
    assert_eq!(s.distinct(), HashSet::from([9]));
}

/// The oracle's distinct set lists each neighbor once, however many copies
/// it holds.
#[test]
fn oracle_lists_distinct_elements() {
    let mut s = MultiSet::default();
    for i in 0..10u32 {
        s.add(i);
        s.add(i);
    }
    assert_eq!(s.len(), 20);
    assert_eq!(s.distinct(), (0..10u32).collect::<HashSet<_>>());
}

/// Concurrent differential smoke: per-thread disjoint key ranges let every
/// thread check its own multiplicities exactly while all threads share slots
/// (exercising stripe contention, concurrent page materialization and
/// spills under contention).
#[test]
fn concurrent_threads_agree_with_per_thread_oracles() {
    let store = AdjacencyStore::new(LEVELS, VERTICES as usize);
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let store = &store;
            scope.spawn(move || {
                let mut oracle = Oracle::new();
                let base = t * 1_000_000;
                for i in 0..3_000u32 {
                    let l = (i % LEVELS as u32) as usize;
                    let v = i % VERTICES;
                    let x = base + i % 7;
                    if i % 3 == 2 {
                        assert_eq!(
                            store.remove(l, v, x),
                            oracle.slot(l, v).remove(x),
                            "thread {t} remove diverged at {i}"
                        );
                    } else {
                        store.add(l, v, x);
                        oracle.slot(l, v).add(x);
                    }
                }
                for l in 0..LEVELS {
                    for v in 0..VERTICES {
                        let want = oracle.slot(l, v);
                        for x in want.distinct() {
                            assert_eq!(
                                store.count(l, v, x) as usize,
                                want.count(x),
                                "thread {t} final count diverged for {x}"
                            );
                        }
                    }
                }
            });
        }
    });
}
