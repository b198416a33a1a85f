//! The paper's full algorithm: lock-free non-spanning edge updates layered
//! on top of non-blocking reads and (fine- or coarse-grained) locking for
//! spanning-forest changes (Section 4.4 and Appendix C).
//!
//! Non-spanning edges — the overwhelming majority of edges in dense graphs
//! (Table 3) — are added and removed without taking any component lock.  The
//! protocol follows the paper's state machine:
//!
//! * an addition announces the edge with an `Initial` state, publishes its
//!   adjacency information, and then linearizes by a CAS to `NonSpanning`;
//! * a removal of a non-spanning edge linearizes by the CAS that deletes its
//!   `NonSpanning` state;
//! * anything touching the spanning forest falls back to the blocking path
//!   under the variant's locking scheme.
//!
//! The delicate case is an addition racing with a spanning-edge removal whose
//! replacement search could miss the new edge (paper Theorem 4.1).  The
//! handshake here is the one described in `DESIGN.md`: the removal publishes
//! a marker for its component *before* scanning and the addition checks the
//! marker *after* publishing its adjacency information, so either the scan
//! sees the edge (and helps complete or adopt it — see
//! [`crate::hdt::Hdt`]'s replacement scan), or the addition sees the marker
//! and falls back to the blocking path, waiting for the removal to finish.
//! Compared to the paper's Listing 9 the addition never *proposes* itself as
//! a replacement directly; it simply degrades to blocking in that rare
//! conflict window, which preserves linearizability and the non-blocking
//! fast path while removing a large amount of helping machinery.

use crate::api::DynamicConnectivity;
use crate::hdt::Hdt;
use crate::locking::UpdateLocking;
use crate::state::{EdgeState, Status};
use dc_graph::Edge;

/// Variants 9, 10 and 11 of the evaluation: the full algorithm,
/// parameterized by the locking scheme used for spanning-forest updates.
pub struct NonBlockingVariant<L: UpdateLocking> {
    hdt: Hdt,
    locking: L,
}

impl<L: UpdateLocking> NonBlockingVariant<L> {
    /// Creates the variant over `n` vertices.
    pub fn new(n: usize, locking: L) -> Self {
        NonBlockingVariant {
            hdt: Hdt::new(n),
            locking,
        }
    }

    /// Access to the underlying structure (tests and statistics).
    pub fn hdt(&self) -> &Hdt {
        &self.hdt
    }

    fn blocking_add(&self, edge: Edge, initial: EdgeState) {
        let (u, v) = edge.endpoints();
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.blocking_add_edge(edge, initial);
        });
    }
}

impl<L: UpdateLocking> DynamicConnectivity for NonBlockingVariant<L> {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        let edge = Edge::new(u, v);
        // Announce the edge (or join a concurrent announcement of the same
        // edge; anything already past `Initial` means it is present).
        let mut initial = EdgeState::initial();
        match self.hdt.states.put_if_absent(edge, initial) {
            None => {}
            Some(st) if st.status() == Status::Initial => initial = st,
            Some(_) => return,
        }
        loop {
            let current = match self.hdt.states.get(&edge) {
                Some(st) => st,
                None => return, // removed concurrently; linearize add before that removal
            };
            if current != initial {
                if current.status() == Status::InProgress {
                    // A concurrent thread is inserting this edge into the
                    // spanning forest; wait for it by passing through the
                    // locks once.
                    self.locking.with_locked(&self.hdt, u, v, || {});
                }
                return;
            }
            if !self.hdt.connected(u, v) {
                // Likely a spanning edge: insert under the locks.
                self.blocking_add(edge, initial);
                return;
            }
            // Non-blocking non-spanning insertion: publish the adjacency
            // information first, then run the conflict handshake.
            self.hdt.add_nonspanning_info(0, edge);
            let root = self.hdt.forest(0).find_root_node(u);
            if self.hdt.published_removal(root).is_some() {
                // A spanning-edge removal is in flight in this component;
                // fall back to blocking so its replacement search and this
                // addition cannot miss each other.
                self.hdt.remove_nonspanning_info(0, edge);
                self.blocking_add(edge, initial);
                return;
            }
            if !self.hdt.connected(u, v) {
                // The component split while we were publishing; retract and
                // re-evaluate (the edge is now likely spanning).
                self.hdt.remove_nonspanning_info(0, edge);
                continue;
            }
            match self.hdt.states.compare_exchange(
                &edge,
                &initial,
                initial.with(Status::NonSpanning, 0),
            ) {
                Ok(()) => {
                    // Linearization point of a non-blocking non-spanning add.
                    self.hdt.record_addition(true);
                    return;
                }
                Err(_) => {
                    // A replacement search helped complete the addition or
                    // adopted the edge into the spanning forest; retract the
                    // extra information copy we published and finish.
                    self.hdt.remove_nonspanning_info(0, edge);
                    self.hdt.record_addition(true);
                    return;
                }
            }
        }
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        let edge = Edge::new(u, v);
        loop {
            let state = match self.hdt.states.get(&edge) {
                Some(st) => st,
                None => return, // absent
            };
            match state.status() {
                Status::Initial => {
                    // Not added yet: linearize the removal before the
                    // concurrent addition completes (paper Listing 7).
                    return;
                }
                Status::Spanning | Status::InProgress => {
                    self.locking.with_locked(&self.hdt, u, v, || {
                        self.hdt.remove_edge_locked(u, v);
                    });
                    return;
                }
                Status::NonSpanning => {
                    // Linearize by removing the state, then retract the
                    // adjacency information.
                    if self.hdt.states.remove_if(&edge, &state).is_ok() {
                        self.hdt
                            .remove_nonspanning_info(state.level() as usize, edge);
                        self.hdt.record_removal(true);
                        return;
                    }
                    // Lost a race (promotion, replacement adoption or another
                    // removal); re-read the state and try again.
                }
            }
        }
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.hdt.connected(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.hdt.num_vertices()
    }

    fn read_hint_counters(&self) -> Option<(u64, u64)> {
        let stats = self.hdt.stats();
        Some((stats.read_hint_hits, stats.read_hint_misses))
    }

    fn set_read_hints(&self, enabled: bool) {
        self.hdt.set_read_hints(enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locking::{FineLocking, GlobalLocking};

    #[test]
    fn sequential_behaviour_matches_expectations() {
        let dc = NonBlockingVariant::new(6, FineLocking::new());
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        dc.add_edge(0, 2); // non-spanning
        assert!(dc.connected(0, 2));
        dc.remove_edge(0, 2); // non-blocking removal
        assert!(dc.connected(0, 2));
        dc.remove_edge(0, 1); // spanning removal, replacement is gone => uses (1,2)? no: (0,2) removed, so split
        assert!(!dc.connected(0, 1));
        assert!(dc.connected(1, 2));
        dc.hdt().validate();
    }

    #[test]
    fn replacement_edge_is_adopted() {
        let dc = NonBlockingVariant::new(5, GlobalLocking::new());
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        dc.add_edge(0, 2); // cycle edge
        dc.remove_edge(1, 2); // spanning; (0,2) must replace it
        assert!(dc.connected(1, 2));
        assert!(dc.connected(0, 2));
        dc.hdt().validate();
        // Removing the remaining two edges disconnects everything.
        dc.remove_edge(0, 1);
        dc.remove_edge(0, 2);
        assert!(!dc.connected(0, 2));
        assert!(!dc.connected(1, 2));
        dc.hdt().validate();
    }

    #[test]
    fn re_adding_a_removed_edge_works() {
        let dc = NonBlockingVariant::new(4, FineLocking::new());
        for _ in 0..10 {
            dc.add_edge(0, 1);
            assert!(dc.connected(0, 1));
            dc.remove_edge(0, 1);
            assert!(!dc.connected(0, 1));
        }
        dc.hdt().validate();
    }

    #[test]
    fn duplicate_adds_do_not_corrupt_state() {
        let dc = NonBlockingVariant::new(4, FineLocking::new());
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        dc.add_edge(0, 2);
        dc.add_edge(0, 2);
        dc.remove_edge(0, 2);
        assert!(dc.connected(0, 2));
        dc.remove_edge(0, 2); // second removal is a no-op
        assert!(dc.connected(0, 2));
        dc.hdt().validate();
    }

    #[test]
    fn stats_track_non_blocking_operations() {
        let dc = NonBlockingVariant::new(4, FineLocking::new());
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        dc.add_edge(0, 2);
        dc.remove_edge(0, 2);
        let stats = dc.hdt().stats();
        assert_eq!(stats.additions, 3);
        assert_eq!(stats.non_spanning_additions, 1);
        assert_eq!(stats.removals, 1);
        assert_eq!(stats.non_spanning_removals, 1);
    }
}
