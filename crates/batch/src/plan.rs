//! The batch preprocessor: dedup, annihilation and partitioning of a
//! batch's update operations before any of them touches the tree.
//!
//! A batch's updates are linearized *as a block* (all of them before the
//! batch's queries — see the crate documentation), so the only observable
//! effect of the update block is the net edge set it leaves behind. That
//! gives the preprocessor three licenses:
//!
//! 1. **Dedup** — several operations on the same edge collapse to the last
//!    one: the net intent of `[add e, remove e, add e]` is "e present".
//! 2. **Annihilation** — a net intent that matches the structure's current
//!    state is dropped entirely. The headline case: an insert+delete pair of
//!    an absent edge cancels to nothing and never touches the tree; dually,
//!    re-adding a present edge costs zero.
//! 3. **Partitioning** — the surviving intents are order-free (one net
//!    operation per distinct edge), so they are partitioned into an
//!    additions slice and a removals slice and applied adds-first (see
//!    `Hdt::apply_compacted_batch_locked` for why that order is the cheap
//!    one).
//!
//! The plan is leader-owned scratch state, reused across batches: `record`
//! is O(1) amortized per operation, `compact_into` is one pass over the
//! distinct edges, and `clear` costs O(the batch) because the plan keeps at
//! most `RETAINED_CAPACITY` entries of capacity between batches.

use dc_graph::Edge;
use dc_sync::FxBuildHasher;
use std::collections::HashMap;

/// Capacity the plan keeps across [`UpdatePlan::clear`]. Clearing a hash
/// table costs time in its capacity, not its length, so one bulk batch
/// (a 400k-edge load) must not leave a table every later single-op batch
/// pays to wipe; and the bulk batch's memory goes back to the allocator.
const RETAINED_CAPACITY: usize = 1024;

/// Accumulates the update operations of one batch as net per-edge intents.
pub struct UpdatePlan {
    /// Net intent per distinct edge, in first-touch order (`true` = the edge
    /// must be present after the batch).
    intents: Vec<(Edge, bool)>,
    /// Edge -> index into `intents`.
    index: HashMap<Edge, usize, FxBuildHasher>,
    /// Update operations recorded since the last [`UpdatePlan::clear`]
    /// (including self-loops and duplicates — the compaction denominator).
    submitted: usize,
}

impl UpdatePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        UpdatePlan {
            intents: Vec::new(),
            index: HashMap::default(),
            submitted: 0,
        }
    }

    /// Resets the plan for the next batch, keeping allocations up to
    /// `RETAINED_CAPACITY` entries.
    pub fn clear(&mut self) {
        self.intents.clear();
        self.intents.shrink_to(RETAINED_CAPACITY);
        self.index.clear();
        self.index.shrink_to(RETAINED_CAPACITY);
        self.submitted = 0;
    }

    /// Returns `true` if no update was recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.submitted == 0
    }

    /// Number of update operations recorded (the compaction denominator).
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Number of distinct edges currently carrying an intent.
    pub fn distinct_edges(&self) -> usize {
        self.intents.len()
    }

    /// Records one update operation (`add == true` for an insertion). A
    /// later operation on the same edge overwrites the earlier intent —
    /// that is the dedup. Self-loops are single-op no-ops and are dropped
    /// immediately.
    pub fn record(&mut self, add: bool, u: u32, v: u32) {
        self.submitted += 1;
        if u == v {
            return;
        }
        let edge = Edge::new(u, v);
        match self.index.get(&edge) {
            Some(&i) => self.intents[i].1 = add,
            None => {
                self.index.insert(edge, self.intents.len());
                self.intents.push((edge, add));
            }
        }
    }

    /// Annihilates and partitions the accumulated intents: every intent that
    /// matches the current presence reported by `has_edge` is dropped, the
    /// survivors are appended to `adds` / `removes`. Returns the number of
    /// surviving updates.
    pub fn compact_into(
        &self,
        mut has_edge: impl FnMut(Edge) -> bool,
        adds: &mut Vec<Edge>,
        removes: &mut Vec<Edge>,
    ) -> usize {
        let mut survivors = 0;
        for &(edge, present) in &self.intents {
            if has_edge(edge) == present {
                continue; // annihilated: the structure is already there
            }
            survivors += 1;
            if present {
                adds.push(edge);
            } else {
                removes.push(edge);
            }
        }
        survivors
    }
}

impl Default for UpdatePlan {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn compact(plan: &UpdatePlan, present: &HashSet<Edge>) -> (Vec<Edge>, Vec<Edge>, usize) {
        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        let n = plan.compact_into(|e| present.contains(&e), &mut adds, &mut removes);
        (adds, removes, n)
    }

    #[test]
    fn insert_delete_pair_annihilates() {
        let mut plan = UpdatePlan::new();
        plan.record(true, 0, 1);
        plan.record(false, 1, 0); // same edge, either orientation
        assert_eq!(plan.submitted(), 2);
        assert_eq!(plan.distinct_edges(), 1);
        let (adds, removes, survivors) = compact(&plan, &HashSet::new());
        assert!(adds.is_empty() && removes.is_empty());
        assert_eq!(survivors, 0, "add+remove of an absent edge is nothing");
    }

    #[test]
    fn delete_insert_pair_on_present_edge_annihilates() {
        let mut plan = UpdatePlan::new();
        plan.record(false, 0, 1);
        plan.record(true, 0, 1);
        let present: HashSet<Edge> = [Edge::new(0, 1)].into_iter().collect();
        let (adds, removes, survivors) = compact(&plan, &present);
        assert!(adds.is_empty() && removes.is_empty());
        assert_eq!(survivors, 0);
    }

    #[test]
    fn last_intent_wins_and_partitions() {
        let mut plan = UpdatePlan::new();
        plan.record(true, 0, 1); // stays: absent -> present
        plan.record(false, 2, 3); // stays: present -> absent
        plan.record(true, 4, 5);
        plan.record(false, 4, 5);
        plan.record(true, 4, 5); // net add
        let present: HashSet<Edge> = [Edge::new(2, 3)].into_iter().collect();
        let (adds, removes, survivors) = compact(&plan, &present);
        assert_eq!(adds, vec![Edge::new(0, 1), Edge::new(4, 5)]);
        assert_eq!(removes, vec![Edge::new(2, 3)]);
        assert_eq!(survivors, 3);
        assert_eq!(plan.submitted(), 5);
    }

    #[test]
    fn self_loops_and_redundant_ops_are_dropped() {
        let mut plan = UpdatePlan::new();
        plan.record(true, 7, 7); // self-loop
        plan.record(true, 0, 1); // already present
        plan.record(false, 2, 3); // already absent
        assert_eq!(plan.submitted(), 3);
        let present: HashSet<Edge> = [Edge::new(0, 1)].into_iter().collect();
        let (adds, removes, survivors) = compact(&plan, &present);
        assert!(adds.is_empty() && removes.is_empty());
        assert_eq!(survivors, 0);
    }

    #[test]
    fn clear_keeps_the_plan_reusable() {
        let mut plan = UpdatePlan::new();
        plan.record(true, 0, 1);
        plan.clear();
        assert!(plan.is_empty());
        assert_eq!(plan.distinct_edges(), 0);
        plan.record(false, 0, 1);
        let (adds, removes, _) = compact(&plan, &[Edge::new(0, 1)].into_iter().collect());
        assert!(adds.is_empty());
        assert_eq!(removes, vec![Edge::new(0, 1)]);
    }

    #[test]
    fn clear_bounds_the_capacity_a_large_batch_leaves_behind() {
        let mut plan = UpdatePlan::new();
        for u in 0..100_000u32 {
            plan.record(true, u, u + 1);
        }
        assert_eq!(plan.distinct_edges(), 100_000);
        plan.clear();
        assert!(plan.is_empty());
        assert!(
            plan.index.capacity() <= 2 * RETAINED_CAPACITY,
            "index kept capacity {}",
            plan.index.capacity()
        );
        assert!(
            plan.intents.capacity() <= 2 * RETAINED_CAPACITY,
            "intents kept capacity {}",
            plan.intents.capacity()
        );
        // Still usable after the shrink.
        plan.record(true, 0, 1);
        let (adds, _, survivors) = compact(&plan, &HashSet::new());
        assert_eq!((adds, survivors), (vec![Edge::new(0, 1)], 1));
    }
}
