//! Linearizability checking of small concurrent histories.
//!
//! The paper's central correctness claim (Theorem 3.2 and the linearization
//! points listed in Appendix C) is that every variant is linearizable.  This
//! test records real concurrent histories — invocation and response
//! timestamps for every `add_edge` / `remove_edge` / `connected` call — and
//! then searches for a witness linearization: a total order of the operations
//! that (a) respects real-time order (an operation that finished before
//! another started must come first), (b) respects per-thread program order,
//! and (c) replays against a sequential dynamic connectivity model producing
//! exactly the observed `connected` return values.
//!
//! The histories are kept small (a few threads, a handful of operations each)
//! so the backtracking search is exact, and many randomized rounds are run to
//! cover different interleavings.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One operation kind in a recorded history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Add(u32, u32),
    Remove(u32, u32),
    Connected(u32, u32),
}

/// A completed operation with its real-time window and observed result.
#[derive(Clone, Debug)]
struct Event {
    thread: usize,
    op: Op,
    /// `Some(answer)` for `Connected`, `None` for updates.
    result: Option<bool>,
    invoked: u64,
    responded: u64,
}

/// Sequential dynamic connectivity model used to replay candidate
/// linearizations: an edge set plus BFS.
#[derive(Clone, Default)]
struct SeqModel {
    edges: HashSet<(u32, u32)>,
}

impl SeqModel {
    fn key(u: u32, v: u32) -> (u32, u32) {
        (u.min(v), u.max(v))
    }

    fn apply(&mut self, op: Op) -> Option<bool> {
        match op {
            Op::Add(u, v) => {
                self.edges.insert(Self::key(u, v));
                None
            }
            Op::Remove(u, v) => {
                self.edges.remove(&Self::key(u, v));
                None
            }
            Op::Connected(u, v) => Some(self.connected(u, v)),
        }
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        let mut stack = vec![u];
        let mut seen = HashSet::new();
        seen.insert(u);
        while let Some(x) = stack.pop() {
            for &(a, b) in &self.edges {
                let y = if a == x {
                    b
                } else if b == x {
                    a
                } else {
                    continue;
                };
                if y == v {
                    return true;
                }
                if seen.insert(y) {
                    stack.push(y);
                }
            }
        }
        false
    }
}

/// Exhaustive backtracking search for a valid linearization of `history`.
/// Returns `true` if one exists.
fn is_linearizable(history: &[Event]) -> bool {
    fn search(remaining: &mut Vec<usize>, history: &[Event], model: &SeqModel) -> bool {
        if remaining.is_empty() {
            return true;
        }
        // Candidates: operations not preceded (in real time or program order)
        // by any other remaining operation.
        let candidates: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                remaining.iter().all(|&j| {
                    j == i
                        || !(history[j].responded < history[i].invoked
                            || (history[j].thread == history[i].thread
                                && history[j].invoked < history[i].invoked))
                })
            })
            .collect();
        for i in candidates {
            let mut next_model = model.clone();
            let produced = next_model.apply(history[i].op);
            if produced != history[i].result {
                continue;
            }
            let pos = remaining.iter().position(|&x| x == i).unwrap();
            remaining.swap_remove(pos);
            if search(remaining, history, &next_model) {
                return true;
            }
            remaining.push(i);
        }
        false
    }
    let mut remaining: Vec<usize> = (0..history.len()).collect();
    search(&mut remaining, history, &SeqModel::default())
}

/// Runs one concurrent round on `variant`: `threads` threads each execute
/// `ops_per_thread` random operations over `n` vertices and record the
/// history; the recorded history must be linearizable.
fn run_round(variant: Variant, n: u32, threads: usize, ops_per_thread: usize, seed: u64) {
    let dc: Arc<dyn DynamicConnectivity> = Arc::from(variant.build(n as usize));
    let clock = Arc::new(AtomicU64::new(0));
    let mut per_thread_events: Vec<Vec<Event>> = Vec::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dc = Arc::clone(&dc);
                let clock = Arc::clone(&clock);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E3779B9));
                    let mut events = Vec::with_capacity(ops_per_thread);
                    for _ in 0..ops_per_thread {
                        let u = rng.gen_range(0..n);
                        let mut v = rng.gen_range(0..n);
                        if v == u {
                            v = (v + 1) % n;
                        }
                        let op = match rng.gen_range(0..3) {
                            0 => Op::Add(u, v),
                            1 => Op::Remove(u, v),
                            _ => Op::Connected(u, v),
                        };
                        let invoked = clock.fetch_add(1, Ordering::SeqCst);
                        let result = match op {
                            Op::Add(a, b) => {
                                dc.add_edge(a, b);
                                None
                            }
                            Op::Remove(a, b) => {
                                dc.remove_edge(a, b);
                                None
                            }
                            Op::Connected(a, b) => Some(dc.connected(a, b)),
                        };
                        let responded = clock.fetch_add(1, Ordering::SeqCst);
                        events.push(Event {
                            thread: t,
                            op,
                            result,
                            invoked,
                            responded,
                        });
                    }
                    events
                })
            })
            .collect();
        for h in handles {
            per_thread_events.push(h.join().expect("history worker panicked"));
        }
    });

    let history: Vec<Event> = per_thread_events.into_iter().flatten().collect();
    assert!(
        is_linearizable(&history),
        "{}: non-linearizable history found (seed {seed}): {history:#?}",
        variant.name()
    );
}

#[test]
fn checker_accepts_a_trivially_sequential_history() {
    let history = vec![
        Event {
            thread: 0,
            op: Op::Add(0, 1),
            result: None,
            invoked: 0,
            responded: 1,
        },
        Event {
            thread: 0,
            op: Op::Connected(0, 1),
            result: Some(true),
            invoked: 2,
            responded: 3,
        },
        Event {
            thread: 0,
            op: Op::Remove(0, 1),
            result: None,
            invoked: 4,
            responded: 5,
        },
        Event {
            thread: 0,
            op: Op::Connected(0, 1),
            result: Some(false),
            invoked: 6,
            responded: 7,
        },
    ];
    assert!(is_linearizable(&history));
}

#[test]
fn checker_rejects_an_impossible_history() {
    // The query observes the edge strictly before it was ever added, with no
    // overlap — no linearization can explain that.
    let history = vec![
        Event {
            thread: 0,
            op: Op::Connected(0, 1),
            result: Some(true),
            invoked: 0,
            responded: 1,
        },
        Event {
            thread: 1,
            op: Op::Add(0, 1),
            result: None,
            invoked: 2,
            responded: 3,
        },
    ];
    assert!(!is_linearizable(&history));
}

#[test]
fn checker_accepts_overlapping_operations_in_either_order() {
    // The query overlaps the addition, so both answers are legal.
    for answer in [true, false] {
        let history = vec![
            Event {
                thread: 0,
                op: Op::Add(0, 1),
                result: None,
                invoked: 0,
                responded: 3,
            },
            Event {
                thread: 1,
                op: Op::Connected(0, 1),
                result: Some(answer),
                invoked: 1,
                responded: 2,
            },
        ];
        assert!(is_linearizable(&history), "answer {answer} should be legal");
    }
}

#[test]
fn our_algorithm_histories_are_linearizable() {
    for round in 0..25 {
        run_round(Variant::OurAlgorithm, 6, 3, 5, 1000 + round);
    }
}

#[test]
fn fine_grained_nonblocking_read_histories_are_linearizable() {
    for round in 0..25 {
        run_round(Variant::FineNonBlockingReads, 6, 3, 5, 2000 + round);
    }
}

#[test]
fn coarse_nonblocking_read_histories_are_linearizable() {
    for round in 0..25 {
        run_round(Variant::CoarseNonBlockingReads, 6, 3, 5, 3000 + round);
    }
}

#[test]
fn combining_histories_are_linearizable() {
    for round in 0..15 {
        run_round(
            Variant::FlatCombiningNonBlockingReads,
            6,
            3,
            4,
            4000 + round,
        );
        run_round(Variant::ParallelCombining, 6, 3, 4, 5000 + round);
    }
}

#[test]
fn nonblocking_coarse_histories_are_linearizable() {
    for round in 0..25 {
        run_round(Variant::OurAlgorithmCoarse, 6, 3, 5, 6000 + round);
    }
}

/// Variant 14 through its single-op adapter: updates combine in the
/// intake while queries are lock-free reads that may overlap a combined
/// pass, so it gets as many rounds as the headline variants.
#[test]
fn batch_engine_adapter_histories_are_linearizable() {
    for round in 0..25 {
        run_round(Variant::BatchEngine, 6, 3, 5, 9000 + round);
    }
}

/// Every shipped variant, variant 14 included through its single-op
/// adapter door: the per-variant tests above run more rounds on the
/// headline combinations, this one makes sure none is left unchecked.
#[test]
fn every_extended_variant_history_is_linearizable() {
    let variants = Variant::all_extended();
    assert_eq!(variants.len(), 14);
    for variant in variants {
        let base = 7000 + 100 * u64::from(variant.paper_number());
        for round in 0..10 {
            run_round(variant, 6, 3, 4, base + round);
        }
    }
}
