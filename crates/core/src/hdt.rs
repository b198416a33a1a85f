//! The Holm–de Lichtenberg–Thorup (HDT) dynamic connectivity core, built on
//! single-writer concurrent Euler Tour Trees.
//!
//! One [`Hdt`] instance holds the complete level structure of the classic
//! sequential algorithm (paper Section 4.1):
//!
//! * one Euler Tour Tree forest per level, `F_0 ⊇ F_1 ⊇ … ⊇ F_lmax`, where
//!   the level-0 forest is the one concurrent readers query; the others are
//!   writer-private ([`EulerForest::writer_private`]: no version words, no
//!   busy-bit bumps);
//! * per-vertex, per-level multisets of adjacent non-spanning edges plus the
//!   corresponding subtree summary flags inside the ETT nodes;
//! * per-vertex, per-level sets of adjacent *exact-level* spanning edges,
//!   used to promote tree edges during a replacement search;
//! * the edge-state map (status + level + ABA tag) shared with the lock-free
//!   non-spanning-edge protocol;
//! * the published-removal side table used by that protocol's conflict
//!   handshake.
//!
//! All structural methods require the caller to be the unique writer for the
//! affected component(s) — a global lock (coarse-grained variants), the
//! per-component locks of [`Hdt::lock_components`] (fine-grained variants),
//! or the combiner of [`crate::combining`].  The only methods that are safe
//! to call with no synchronization at all are [`Hdt::connected`] and the
//! read-only accessors, plus the specific lock-free entry points used by the
//! non-blocking variants in [`crate::nonblocking`].
//!
//! # Adjacency layout and memory model
//!
//! The per-vertex, per-level adjacency multisets live in two flat
//! [`AdjacencyStore`]s (`nontree_adj` for non-spanning edges, `tree_adj`
//! for exact-level spanning edges), each indexed by `level * n + vertex`:
//!
//! * **Construction is O(1) allocations for adjacency.** The stores allocate
//!   only a page spine and a stripe array; the slot pages behind the
//!   `(level, vertex)` pairs materialize on first write, so adjacency memory
//!   scales with the number of *touched* pairs rather than with `n log n`.
//!   Level forests above 0 are equally lazy (`OnceLock` per level), so
//!   `Hdt::new(n)` allocates one forest of `n` vertices and nothing per
//!   upper level.
//! * **Slots hold neighbor ids.** Edge `{u, v}` is filed as `v` in slot
//!   `(level, u)` and as `u` in slot `(level, v)`; a visit rebuilds it as
//!   `Edge::new(vertex, neighbor)`. Up to four ids sit in place in a
//!   24-byte slot (the common case: Table 3's per-vertex degrees are tiny);
//!   higher-degree slots spill into a private open-addressed table.
//! * **The hot paths never clone snapshots.** The replacement search
//!   ([`Hdt::remove_edge_locked`] → `scan_for_replacement`) streams each
//!   slot through the store's fixed chunk buffer; promotions drain slots
//!   with `pop`.  Iteration is best-effort under concurrent mutation exactly
//!   like the JVM concurrent sets the paper builds on: edges present
//!   throughout the scan are visited at least once (the store restarts a
//!   slot walk if the slot is reorganized mid-visit), concurrently
//!   added/removed edges may or may not appear, and the published-removal
//!   handshake in [`crate::nonblocking`] covers the added-but-missed case.
//! * **Synchronization.** Slot operations serialize on striped spinlocks
//!   inside the stores; the replacement search's visitor callbacks run
//!   with the stripe released (only the checkpoint export's quiescent walk
//!   holds every stripe while it reads).  The single-writer discipline above still governs which thread may perform
//!   structural mutations — the stores only make the *individual slot
//!   operations* atomic (which is what the lock-free non-spanning protocol
//!   needs for its `add_nonspanning_info` / `remove_nonspanning_info`
//!   publications).
//!
//! # The replacement search
//!
//! [`Hdt::remove_edge_locked`] of a spanning edge searches the levels from
//! the edge's own down to 0, on the smaller piece. Each level first samples
//! up to `k` non-crossing candidates, promoting nothing
//! ([`default_sampling_limit`]: `max(16, ⌈log₂ n⌉²)` for [`Hdt::new`]), and
//! promotes only when that budget runs out (DESIGN.md §15).
//! [`StatsSnapshot::sample_budgets_spent`] and [`StatsSnapshot::promotions`]
//! count how often that happens and what it moves.

use crate::baseline::UnionFind;
use crate::state::{splitmix64, EdgeState, RemovalOp, Status};
use dc_ett::{EulerForest, Mark, NodeRef};
use dc_graph::Edge;
use dc_obs::{Counter, Tally};
use dc_sync::{AdjacencyStore, ShardedMap};
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// The replacement search's sample budget [`Hdt::new`] gives `n` vertices:
/// `max(16, ⌈log₂ n⌉²)`, the Θ(log² n) sample of Henzinger & King. At each
/// level the search looks at up to this many non-crossing non-spanning
/// edges of the smaller side, promoting nothing, before it falls back to
/// promoting (the sampling heuristic the paper enables for every
/// algorithm). A replacement among them promotes nothing, and a side with
/// fewer such edges has no replacement at that level, so that level
/// promotes nothing either. A budget of 0 ([`Hdt::with_sampling`]) skips
/// the sample pass: every level promotes (DESIGN.md §15).
pub fn default_sampling_limit(n: usize) -> usize {
    let log = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
    (log * log).max(16)
}

/// The Table 3 / Table 4 statistics of one [`Hdt`]: a point-in-time read of
/// its [`Tally`] (see [`Hdt::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Total completed edge additions.
    pub additions: u64,
    /// Additions that did not change the spanning forest.
    pub non_spanning_additions: u64,
    /// Total completed edge removals.
    pub removals: u64,
    /// Removals of non-spanning edges.
    pub non_spanning_removals: u64,
    /// Spanning-edge removals that found a replacement.
    pub replacements_found: u64,
    /// Replacement-search levels whose sample pass spent its budget before
    /// its walk ended, and so fell back to promote + full scan.
    pub sample_budgets_spent: u64,
    /// Edges moved up one level by a replacement search (spanning edges by
    /// its promotion step, non-spanning ones by its full scan).
    pub promotions: u64,
    /// Query endpoint resolutions answered purely from the level-0
    /// root-hint cache — no tree traversal at all (a two-endpoint query
    /// contributes two counts).
    pub read_hint_hits: u64,
    /// Query endpoint resolutions that fell back to a parent-pointer climb
    /// (cold or stale hints; with the cache disabled nothing is counted).
    pub read_hint_misses: u64,
}

impl StatsSnapshot {
    /// Percentage of additions that were non-spanning.
    pub fn non_spanning_addition_rate(&self) -> f64 {
        if self.additions == 0 {
            0.0
        } else {
            100.0 * self.non_spanning_additions as f64 / self.additions as f64
        }
    }

    /// Percentage of removals that were non-spanning.
    pub fn non_spanning_removal_rate(&self) -> f64 {
        if self.removals == 0 {
            0.0
        } else {
            100.0 * self.non_spanning_removals as f64 / self.removals as f64
        }
    }

    /// Percentage of hint-cache consultations that hit (avoided the climb).
    pub fn read_hint_hit_rate(&self) -> f64 {
        let total = self.read_hint_hits + self.read_hint_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.read_hint_hits as f64 / total as f64
        }
    }
}

/// The vertex self-marks a bulk build raises, collected as one vertex
/// bitmap per `(level, mark)` while the edges are scanned and applied in
/// vertex order before the forests are built: a sequential pass over the
/// vertex nodes instead of one random node access per endpoint.
struct SingletonMarks {
    words: usize,
    /// Indexed by `2 * level + mark`; empty until the first mark.
    bits: Vec<Vec<u64>>,
}

impl SingletonMarks {
    fn new(n: usize, levels: usize) -> Self {
        SingletonMarks {
            words: n.div_ceil(64),
            bits: vec![Vec::new(); 2 * levels],
        }
    }

    fn set(&mut self, level: usize, mark: Mark, v: u32) {
        let bits = &mut self.bits[2 * level + mark as usize];
        if bits.is_empty() {
            bits.resize(self.words, 0);
        }
        bits[v as usize / 64] |= 1 << (v % 64);
    }

    /// Raises every collected mark on its (still singleton) vertex.
    fn apply(self, hdt: &Hdt) {
        for (i, bits) in self.bits.iter().enumerate() {
            if bits.is_empty() {
                continue;
            }
            let forest = hdt.forest(i / 2);
            let mark = if i % 2 == Mark::Spanning as usize {
                Mark::Spanning
            } else {
                Mark::NonSpanning
            };
            for (w, &word) in bits.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    forest.mark_singleton((w * 64) as u32 + rest.trailing_zeros(), mark);
                    rest &= rest - 1;
                }
            }
        }
    }
}

/// Each endpoint of `edge` paired with the other one: the slot an
/// adjacency store files the edge under, and the neighbor id it stores.
#[inline]
fn ends(edge: Edge) -> [(u32, u32); 2] {
    let (u, v) = edge.endpoints();
    [(u, v), (v, u)]
}

/// How one pass of the replacement scan treats the non-crossing edges it
/// meets (see [`Hdt::remove_spanning_edge`]).
enum ScanPass {
    /// Promotes nothing, and stops once `left` reaches 0; each non-crossing
    /// edge seen takes one from it.
    Sample { left: usize },
    /// Promotes every non-crossing edge to the next level, counting them.
    Full { promoted: u64 },
}

/// How a pass of the replacement scan ended.
enum ScanEnd {
    /// A crossing edge, already moved to `Spanning(level)`.
    Found(Edge),
    /// The sample pass spent its budget before its walk ended.
    BudgetSpent,
    /// The walk saw every non-spanning edge of the tree, and none crosses.
    Exhausted,
}

/// Handle to the component locks acquired by [`Hdt::lock_components`].
#[derive(Debug, Clone, Copy)]
pub struct LockedComponents {
    roots: [NodeRef; 2],
    count: usize,
    shared: bool,
}

/// An order-independent fingerprint of a set of edges: its size and the
/// wrapping sum of a SplitMix64-mixed key per edge. The checkpoint export
/// compares the state map's edges with the forests and the adjacency store
/// this way, without a lookup per edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeSetFingerprint {
    edges: usize,
    key_sum: u64,
}

impl EdgeSetFingerprint {
    fn add(&mut self, edge: Edge) {
        let key = (edge.u() as u64) << 32 | edge.v() as u64;
        self.edges += 1;
        self.key_sum = self.key_sum.wrapping_add(splitmix64(key));
    }

    fn merge(&mut self, other: Self) {
        self.edges += other.edges;
        self.key_sum = self.key_sum.wrapping_add(other.key_sum);
    }
}

/// The HDT dynamic connectivity core; see the module documentation.
pub struct Hdt {
    n: usize,
    /// Per-level spanning forests. Level 0 is materialized at construction
    /// (it answers every query); levels `>= 1` are only built when the first
    /// promotion reaches them, so `Hdt::new` is O(n) instead of O(n log n).
    levels: Vec<OnceLock<EulerForest>>,
    /// Adjacent non-spanning edges, slot `(level, vertex)`, as far endpoints.
    nontree_adj: AdjacencyStore,
    /// Adjacent spanning edges of exactly `level`, slot `(level, vertex)`,
    /// as far endpoints.
    tree_adj: AdjacencyStore,
    /// Status + level + tag per edge (absence = removed / never added).
    pub(crate) states: ShardedMap<Edge, EdgeState>,
    /// In-flight spanning-edge removals, keyed by the component's level-0
    /// root (the representative concurrent readers observe).
    pub(crate) removal_ops: ShardedMap<NodeRef, Arc<RemovalOp>>,
    sampling_limit: usize,
    /// This structure's counters, shared with its forests and its owners.
    tally: Arc<Tally>,
}

impl Hdt {
    /// Creates an empty structure over `n` vertices, with the sample budget
    /// of [`default_sampling_limit`].
    pub fn new(n: usize) -> Self {
        Self::with_sampling(n, default_sampling_limit(n))
    }

    /// Creates an empty structure with an explicit sampling budget for the
    /// replacement search (0 disables the heuristic).
    pub fn with_sampling(n: usize, sampling_limit: usize) -> Self {
        assert!(n >= 1, "the structure needs at least one vertex");
        let lmax = (n.max(2) as f64).log2().floor() as usize;
        let num_levels = lmax + 2; // levels 0..=lmax plus one spill level
        let levels: Vec<OnceLock<EulerForest>> = (0..num_levels).map(|_| OnceLock::new()).collect();
        let tally = Arc::new(Tally::new());
        // Queries read the level-0 forest with no synchronization, so it is
        // the one level built eagerly.
        if levels[0]
            .set(EulerForest::with_tally(
                n,
                Self::forest_seed(0),
                Arc::clone(&tally),
            ))
            .is_err()
        {
            unreachable!("level 0 initialized twice");
        }
        Hdt {
            n,
            levels,
            nontree_adj: AdjacencyStore::new(num_levels, n),
            tree_adj: AdjacencyStore::new(num_levels, n),
            states: ShardedMap::new(),
            removal_ops: ShardedMap::new(),
            sampling_limit,
            tally,
        }
    }

    #[inline]
    fn forest_seed(level: usize) -> u64 {
        0xDC0DE ^ (level as u64) << 32
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of levels in the level structure.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level-`i` spanning forest (the level-0 forest is the one queries
    /// read). Forests above level 0 materialize on first access, writer-private:
    /// no reader climbs them, so they carry no version words.
    #[inline]
    pub fn forest(&self, level: usize) -> &EulerForest {
        self.levels[level].get_or_init(|| {
            EulerForest::writer_private(self.n, Self::forest_seed(level), Arc::clone(&self.tally))
        })
    }

    /// Number of level forests that have been materialized so far.
    pub fn materialized_forest_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.get().is_some()).count()
    }

    /// The non-spanning adjacency store (tests and diagnostics).
    pub fn nontree_store(&self) -> &AdjacencyStore {
        &self.nontree_adj
    }

    /// The exact-level spanning adjacency store (tests and diagnostics).
    pub fn tree_store(&self) -> &AdjacencyStore {
        &self.tree_adj
    }

    /// The operation counters, read from [`Hdt::tally`].
    pub fn stats(&self) -> StatsSnapshot {
        let t = &self.tally;
        StatsSnapshot {
            additions: t.get(Counter::HdtAdditions),
            non_spanning_additions: t.get(Counter::HdtNonSpanningAdditions),
            removals: t.get(Counter::HdtRemovals),
            non_spanning_removals: t.get(Counter::HdtNonSpanningRemovals),
            replacements_found: t.get(Counter::HdtReplacementsFound),
            sample_budgets_spent: t.get(Counter::HdtSampleBudgetsSpent),
            promotions: t.get(Counter::HdtPromotions),
            read_hint_hits: t.get(Counter::HintHits),
            read_hint_misses: t.get(Counter::HintMisses),
        }
    }

    /// This structure's counters (see [`dc_obs::Tally`]), for
    /// [`dc_obs::ObsSnapshot::gather`].
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Enables or disables the level-0 root-hint read fast path (strictly
    /// an accelerator; both settings are correct).
    pub fn set_read_hints(&self, enabled: bool) {
        self.forest(0).set_read_hints(enabled);
    }

    /// Whether the level-0 root-hint read fast path is enabled.
    pub fn read_hints_enabled(&self) -> bool {
        self.forest(0).read_hints_enabled()
    }

    /// Sets the interleaved engine's in-flight climb count (clamped to
    /// `1..=dc_ett::MAX_INTERLEAVE_WIDTH`; the default of 8 suits most
    /// hosts — see `DESIGN.md` §10).
    pub fn set_interleave_width(&self, width: usize) {
        self.forest(0).set_interleave_width(width);
    }

    /// The interleaved engine's in-flight climb count.
    pub fn interleave_width(&self) -> usize {
        self.forest(0).interleave_width()
    }

    // ----- queries -----------------------------------------------------------

    /// Lock-free linearizable connectivity query (paper Listing 1 applied to
    /// the level-0 forest). Safe to call from any thread at any time.
    #[inline]
    pub fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        self.forest(0).connected(u, v)
    }

    /// Connectivity query by plain root comparison; valid only while the
    /// caller holds locks covering both components.
    #[inline]
    pub fn connected_locked(&self, u: u32, v: u32) -> bool {
        u == v || self.forest(0).same_tree_locked(u, v)
    }

    /// Size of the component of `u` (writer-side; requires the component to
    /// be quiescent or locked).
    pub fn component_size(&self, u: u32) -> usize {
        self.forest(0).component_size(u) as usize
    }

    /// Returns `true` if the edge is currently present in the graph.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        matches!(
            self.states.get(&Edge::new(u, v)),
            Some(st) if st.status() != Status::Initial
        )
    }

    // ----- per-component locking (paper Listing 2) ---------------------------

    fn lock_components_inner(&self, u: u32, v: u32, shared: bool) -> LockedComponents {
        let forest = self.forest(0);
        loop {
            let u_root = forest.find_root_node(u);
            let v_root = forest.find_root_node(v);
            // Always acquire in the same global order to avoid deadlock.
            let (first, second) = if u_root <= v_root {
                (u_root, v_root)
            } else {
                (v_root, u_root)
            };
            let lock = |r: NodeRef| {
                if shared {
                    forest.root_lock(r).read_lock()
                } else {
                    forest.root_lock(r).lock()
                }
            };
            let unlock = |r: NodeRef| {
                if shared {
                    forest.root_lock(r).read_unlock()
                } else {
                    forest.root_lock(r).unlock()
                }
            };
            lock(first);
            if second != first {
                lock(second);
            }
            // Re-check that we locked the current representatives.
            let still_roots = forest.is_current_root(u_root) && forest.is_current_root(v_root);
            let still_current =
                forest.find_root_node(u) == u_root && forest.find_root_node(v) == v_root;
            if still_roots && still_current {
                let count = if second != first { 2 } else { 1 };
                return LockedComponents {
                    roots: [first, second],
                    count,
                    shared,
                };
            }
            unlock(first);
            if second != first {
                unlock(second);
            }
        }
    }

    /// Acquires the per-component locks for the components of `u` and `v`
    /// (one lock if they are in the same component), following the retry
    /// protocol of paper Listing 2.
    pub fn lock_components(&self, u: u32, v: u32) -> LockedComponents {
        self.lock_components_inner(u, v, false)
    }

    /// Shared-mode variant used by the fine-grained readers-writer scheme
    /// ([`crate::locking::FineRwLocking`]) for queries.
    pub fn lock_components_shared(&self, u: u32, v: u32) -> LockedComponents {
        self.lock_components_inner(u, v, true)
    }

    /// Releases locks acquired by [`Hdt::lock_components`] /
    /// [`Hdt::lock_components_shared`].
    pub fn unlock_components(&self, locked: LockedComponents) {
        let forest = self.forest(0);
        for i in 0..locked.count {
            let lock = forest.root_lock(locked.roots[i]);
            if locked.shared {
                lock.read_unlock();
            } else {
                lock.unlock();
            }
        }
    }

    /// Runs `f` with the components of `u` and `v` exclusively locked.
    pub fn with_components_locked<R>(&self, u: u32, v: u32, f: impl FnOnce() -> R) -> R {
        let locked = self.lock_components(u, v);
        let result = f();
        self.unlock_components(locked);
        result
    }

    // ----- structural operations (caller provides synchronization) ----------

    /// Adds edge `(u, v)`. Returns `false` if it was already present.
    ///
    /// The caller must hold synchronization covering both endpoints'
    /// components (a global lock or [`Hdt::lock_components`]).
    pub fn add_edge_locked(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let edge = Edge::new(u, v);
        if self.has_edge(u, v) {
            return false;
        }
        let non_spanning = self.connected_locked(u, v);
        self.record_addition(non_spanning);
        if non_spanning {
            self.add_nonspanning_info(0, edge);
            self.states
                .insert(edge, EdgeState::new(Status::NonSpanning, 0));
        } else {
            self.make_spanning(edge, 0);
            self.states
                .insert(edge, EdgeState::new(Status::Spanning, 0));
        }
        true
    }

    /// Fallible [`Hdt::add_edge_locked`]: a spanning insert that cannot get
    /// forest node storage — arena exhaustion, real or chaos-injected —
    /// returns `Err(ArenaExhausted)` with the structure untouched, instead
    /// of aborting the process. Non-spanning inserts allocate no forest
    /// nodes and cannot fail this way.
    ///
    /// Only the *add* path is fallible: an addition is the one operation a
    /// service can meaningfully reject at capacity. Removals (whose
    /// replacement searches may also link, via promotions) stay on the
    /// infallible path — failing a removal halfway would strand the level
    /// structure, so genuine exhaustion there is handled by the batch
    /// engine's unwind boundary and poison discipline (`DESIGN.md` §13).
    pub fn try_add_edge_locked(&self, u: u32, v: u32) -> Result<bool, dc_ett::ArenaExhausted> {
        if u == v {
            return Ok(false);
        }
        let edge = Edge::new(u, v);
        if self.has_edge(u, v) {
            return Ok(false);
        }
        if self.connected_locked(u, v) {
            self.record_addition(true);
            self.add_nonspanning_info(0, edge);
            self.states
                .insert(edge, EdgeState::new(Status::NonSpanning, 0));
        } else {
            // The add path always links at level 0 only, so one fallible
            // link covers the whole operation: failure leaves no partial
            // multi-level state behind.
            self.try_make_spanning_level0(edge)?;
            self.record_addition(false);
            self.states
                .insert(edge, EdgeState::new(Status::Spanning, 0));
        }
        Ok(true)
    }

    /// Removes edge `(u, v)`. Returns `false` if it was not present.
    ///
    /// Same synchronization contract as [`Hdt::add_edge_locked`].
    pub fn remove_edge_locked(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let edge = Edge::new(u, v);
        let state = match self.states.get(&edge) {
            Some(st) if st.status() != Status::Initial => st,
            _ => return false,
        };
        self.record_removal(state.status() == Status::NonSpanning);
        match state.status() {
            Status::NonSpanning => {
                self.remove_nonspanning_info(state.level() as usize, edge);
                self.states.remove(&edge);
            }
            Status::Spanning | Status::InProgress => {
                self.remove_spanning_edge(edge, state.level() as usize);
                self.states.remove(&edge);
            }
            Status::Initial => unreachable!(),
        }
        true
    }

    /// Publishes a removal marker for the component whose level-0 root is
    /// `root` (used by the lock-free protocol's conflict handshake).
    pub(crate) fn publish_removal(&self, root: NodeRef, op: Arc<RemovalOp>) {
        self.removal_ops.insert(root, op);
    }

    /// Removes a previously published removal marker.
    pub(crate) fn unpublish_removal(&self, root: NodeRef) {
        self.removal_ops.remove(&root);
    }

    /// Returns the removal marker currently published for `root`, if any.
    pub(crate) fn published_removal(&self, root: NodeRef) -> Option<Arc<RemovalOp>> {
        self.removal_ops.get(&root)
    }

    /// Records a completed addition in the statistics counters (also used
    /// by the non-blocking fast paths, which bypass
    /// [`Hdt::add_edge_locked`]).
    pub(crate) fn record_addition(&self, non_spanning: bool) {
        self.tally.add(Counter::HdtAdditions, 1);
        if non_spanning {
            self.tally.add(Counter::HdtNonSpanningAdditions, 1);
        }
    }

    /// Records a completed removal in the statistics counters.
    pub(crate) fn record_removal(&self, non_spanning: bool) {
        self.tally.add(Counter::HdtRemovals, 1);
        if non_spanning {
            self.tally.add(Counter::HdtNonSpanningRemovals, 1);
        }
    }

    /// Completes an announced addition under the component locks: the
    /// blocking fallback of the non-blocking protocol (paper Listing 8,
    /// `blocking_add_edge`). `initial` is the `Initial` state the caller
    /// announced; if the stored state differs, someone else already finished
    /// the insertion and this call is a no-op.
    pub(crate) fn blocking_add_edge(&self, edge: Edge, initial: EdgeState) {
        let (u, v) = edge.endpoints();
        match self.states.get(&edge) {
            Some(st) if st == initial => {}
            _ => return,
        }
        if self.connected_locked(u, v) {
            // Non-spanning insertion; publish info before the state change so
            // a concurrent replacement search can always find the edge.
            self.add_nonspanning_info(0, edge);
            if self
                .states
                .compare_exchange(&edge, &initial, initial.with(Status::NonSpanning, 0))
                .is_ok()
            {
                self.record_addition(true);
            } else {
                self.remove_nonspanning_info(0, edge);
            }
        } else {
            self.states
                .insert(edge, initial.with(Status::InProgress, 0));
            self.make_spanning(edge, 0);
            self.states.insert(edge, initial.with(Status::Spanning, 0));
            self.record_addition(false);
        }
    }

    // ----- batch hooks (used by the `dc_batch` engine) -----------------------

    /// Applies a compacted batch of updates in one combined pass, under the
    /// caller's synchronization (same contract as [`Hdt::add_edge_locked`]).
    ///
    /// Additions are applied before removals on purpose: every edge the
    /// batch inserts is in place before any removal runs, so a removed
    /// spanning edge sees the densest graph the batch can offer — the
    /// replacement search is maximally likely to find a (cheap) replacement
    /// instead of committing a split that a later addition of the same batch
    /// would immediately undo. The final edge set is order-independent (the
    /// batch preprocessor only emits one net operation per edge), so this is
    /// purely a cost choice.
    ///
    /// Returns the number of updates that actually changed the edge set.
    pub fn apply_compacted_batch_locked(&self, adds: &[Edge], removes: &[Edge]) -> usize {
        let mut changed = 0;
        for e in adds {
            if self.add_edge_locked(e.u(), e.v()) {
                changed += 1;
            }
        }
        for e in removes {
            if self.remove_edge_locked(e.u(), e.v()) {
                changed += 1;
            }
        }
        changed
    }

    /// Fallible [`Hdt::apply_compacted_batch_locked`]: additions that the
    /// forest rejects for capacity ([`Hdt::try_add_edge_locked`]) are
    /// appended to `rejected` (and counted on
    /// [`Counter::CapacityRejections`]) instead of aborting; every
    /// other update applies normally. Returns the number of updates that
    /// changed the edge set — rejected adds don't count, and the caller is
    /// expected to drop them from whatever it logs or acks downstream.
    pub fn try_apply_compacted_batch_locked(
        &self,
        adds: &[Edge],
        removes: &[Edge],
        rejected: &mut Vec<Edge>,
    ) -> usize {
        let mut changed = 0;
        for e in adds {
            match self.try_add_edge_locked(e.u(), e.v()) {
                Ok(true) => changed += 1,
                Ok(false) => {}
                Err(dc_ett::ArenaExhausted) => {
                    self.tally.add(Counter::CapacityRejections, 1);
                    rejected.push(*e);
                }
            }
        }
        for e in removes {
            if self.remove_edge_locked(e.u(), e.v()) {
                changed += 1;
            }
        }
        changed
    }

    /// Answers a run of connectivity queries with the lock-free read
    /// protocol, appending one answer per pair to `out`. Safe to call from
    /// any number of threads concurrently (the batch engine fans a query run
    /// out across threads, each answering a chunk against the same
    /// consistent post-update state).
    ///
    /// Unlike a loop over [`Hdt::connected`], the run resolves each
    /// *distinct* endpoint's root at most once (sorted endpoint memo) and
    /// revalidates it per pair with a few version loads — repeated roots
    /// never re-climb within one call, even when the hint cache is cold or
    /// disabled. Each answer is still individually linearizable.
    ///
    /// The run goes through the interleaved, software-prefetched read
    /// engine (`DESIGN.md` §10), which overlaps the DRAM stalls of
    /// independent climbs.
    pub fn connected_many(&self, pairs: &[(u32, u32)], out: &mut Vec<bool>) {
        self.forest(0).connected_many_into(pairs, out);
    }

    // ----- durability hooks (used by the `dc_durable` checkpoint layer) ------

    /// Exports the complete logical edge state for checkpoint serialization:
    /// calls `spanning(u, v, level)` once per spanning edge at its exact
    /// level and `nonspanning(u, v, level)` once per non-spanning edge at
    /// its level, in the state map's (hash) order.
    ///
    /// The export is one pass over the edge-state map: status and level come
    /// from each edge's state word, and no per-edge lookup is made anywhere.
    /// Any status other than spanning or non-spanning — an insertion in
    /// flight — panics. The pass also fingerprints each class per level (a
    /// count and a wrapping sum of a mixed edge key), and two sequential
    /// walks are checked against those fingerprints:
    ///
    /// * every level-`l` forest's tree edges must be the spanning edges of
    ///   level `l` or higher (this also pins the size of every upper
    ///   forest);
    /// * at every level, both halves of the non-tree adjacency (the entry
    ///   at the smaller endpoint and the one at the larger) must be that
    ///   level's non-spanning edges.
    ///
    /// A disagreement panics after the callbacks have run but before this
    /// returns, so a caller that encodes only after the export returns
    /// never writes a checkpoint of an inconsistent structure. Only a 64-bit
    /// sum collision can hide a disagreement.
    ///
    /// Same synchronization contract as [`Hdt::add_edge_locked`]: the
    /// structure must be write-quiescent (concurrent lock-free readers are
    /// fine).
    pub fn export_edges_locked(
        &self,
        mut spanning: impl FnMut(u32, u32, u8),
        mut nonspanning: impl FnMut(u32, u32, u8),
    ) {
        let levels = self.levels.len();
        let mut tree = vec![EdgeSetFingerprint::default(); levels];
        let mut nontree = vec![EdgeSetFingerprint::default(); levels];
        self.states.for_each(|&edge, &state| {
            let level = state.level();
            match state.status() {
                Status::Spanning => {
                    spanning(edge.u(), edge.v(), level);
                    tree[level as usize].add(edge);
                }
                Status::NonSpanning => {
                    nonspanning(edge.u(), edge.v(), level);
                    nontree[level as usize].add(edge);
                }
                status => {
                    panic!("checkpoint export: {edge:?} is {status:?} at a quiescent point")
                }
            }
        });
        // A level-`l` spanning edge sits in forests `0..=l`.
        let mut at_or_above = EdgeSetFingerprint::default();
        for lvl in (0..levels).rev() {
            at_or_above.merge(tree[lvl]);
            let mut held = EdgeSetFingerprint::default();
            if let Some(forest) = self.levels[lvl].get() {
                forest.for_each_tree_edge(|u, v| held.add(Edge::new(u, v)));
            }
            assert_eq!(
                held, at_or_above,
                "checkpoint export: forest {lvl} disagrees with the state map's spanning \
                 edges of level {lvl} or higher"
            );
        }
        let mut lower = vec![EdgeSetFingerprint::default(); levels];
        let mut upper = vec![EdgeSetFingerprint::default(); levels];
        self.nontree_adj.for_each_entry(|level, vertex, nbr| {
            let half = if vertex < nbr { &mut lower } else { &mut upper };
            half[level].add(Edge::new(vertex, nbr));
        });
        for lvl in 0..levels {
            assert!(
                lower[lvl] == nontree[lvl] && upper[lvl] == nontree[lvl],
                "checkpoint export: non-tree adjacency level {lvl} holds {:?} / {:?} \
                 (smaller / larger endpoint) but the state map says {:?}",
                lower[lvl],
                upper[lvl],
                nontree[lvl]
            );
        }
    }

    // ----- bulk construction ---------------------------------------------------

    /// Number of edges in the graph (exact while the structure is
    /// write-quiescent).
    pub fn num_edges(&self) -> usize {
        self.states.len()
    }

    /// Loads `adds` into a structure that holds no edges, in time linear in
    /// the vertex count plus `adds.len()` (`DESIGN.md` §2, "Bulk
    /// construction"). The outcome — edge set, spanning forest, levels,
    /// capacity rejections, statistics — is exactly that of calling
    /// [`Hdt::try_add_edge_locked`] on each edge in order:
    ///
    /// * a union-find pass in batch order makes an edge spanning iff its
    ///   endpoints are not yet connected, which is the partition the
    ///   sequential path picks; a repeated edge is skipped;
    /// * each spanning edge reserves its two tour nodes at that point of
    ///   the pass, with the allocation calls `try_link` would make, so an
    ///   edge the arena refuses (real or chaos-injected exhaustion) is
    ///   appended to `rejected` (and tallied on
    ///   [`dc_obs::Counter::CapacityRejections`]) and later edges see the
    ///   graph without it;
    /// * adjacency entries and vertex self-marks are written while every
    ///   vertex is still a singleton, then [`EulerForest::build_trees`]
    ///   links the whole level-0 forest at once.
    ///
    /// Returns the number of edges added. Same synchronization contract as
    /// [`Hdt::add_edge_locked`], for the whole structure; lock-free readers
    /// may run throughout.
    pub fn bulk_build(&self, adds: &[Edge], rejected: &mut Vec<Edge>) -> usize {
        assert!(
            self.states.is_empty(),
            "bulk_build needs a structure that holds no edges"
        );
        let forest = self.forest(0);
        let mut marks = SingletonMarks::new(self.n, 1);
        let mut components = UnionFind::new(self.n);
        let mut spanning = Vec::new();
        let mut reserved = Vec::new();
        let mut nonspanning = 0usize;
        for &edge in adds {
            let (u, v) = edge.endpoints();
            let (ru, rv) = (components.find(u), components.find(v));
            if ru == rv {
                let state = EdgeState::new(Status::NonSpanning, 0);
                if self.states.put_if_absent(edge, state).is_none() {
                    self.record_bulk_edge(0, edge, Status::NonSpanning, &mut marks);
                    nonspanning += 1;
                }
                continue;
            }
            match forest.try_reserve_edge_nodes() {
                Ok(pair) => {
                    components.union(ru, rv);
                    self.states
                        .insert(edge, EdgeState::new(Status::Spanning, 0));
                    self.record_bulk_edge(0, edge, Status::Spanning, &mut marks);
                    spanning.push((u, v));
                    reserved.push(pair);
                }
                Err(dc_ett::ArenaExhausted) => {
                    self.tally.add(Counter::CapacityRejections, 1);
                    rejected.push(edge);
                }
            }
        }
        drop(components);
        marks.apply(self);
        forest.build_trees(&spanning, reserved);
        let added = spanning.len() + nonspanning;
        self.tally.add(Counter::HdtAdditions, added as u64);
        self.tally
            .add(Counter::HdtNonSpanningAdditions, nonspanning as u64);
        added
    }

    /// Rebuilds an exported edge set at its exact levels — the inverse of
    /// [`Hdt::export_edges_locked`], used by checkpoint restore. Every
    /// edge's state, adjacency entry and self-mark is written first; then
    /// [`EulerForest::build_trees`] runs once per level `l`, over the
    /// spanning edges of level `l` or higher (in input order, so each
    /// level's tour-edge registry fills as the per-edge links would).
    ///
    /// Contract: the structure holds no edges, the two lists hold distinct
    /// edges with levels in range, and each level's spanning edges form a
    /// forest that spans every non-spanning edge of that level — what an
    /// export of a valid structure produces. Violations panic. Same
    /// synchronization contract as [`Hdt::bulk_build`].
    pub fn bulk_build_levels(&self, spanning: &[(u32, u32, u8)], nonspanning: &[(u32, u32, u8)]) {
        assert!(
            self.states.is_empty(),
            "bulk_build_levels needs a structure that holds no edges"
        );
        let mut marks = SingletonMarks::new(self.n, self.levels.len());
        for (class, status) in [
            (spanning, Status::Spanning),
            (nonspanning, Status::NonSpanning),
        ] {
            for &(u, v, level) in class {
                let edge = Edge::new(u, v);
                assert!((level as usize) < self.levels.len(), "level out of range");
                let prev = self
                    .states
                    .put_if_absent(edge, EdgeState::new(status, level));
                assert!(prev.is_none(), "{edge:?} listed twice");
                self.record_bulk_edge(level as usize, edge, status, &mut marks);
            }
        }
        marks.apply(self);
        let top = spanning.iter().map(|e| e.2 as usize).max().unwrap_or(0);
        let mut edges = Vec::with_capacity(spanning.len());
        for lvl in 0..=top {
            edges.clear();
            edges.extend(
                spanning
                    .iter()
                    .filter(|e| e.2 as usize >= lvl)
                    .map(|&(u, v, _)| (u, v)),
            );
            self.forest(lvl).build_trees(&edges, Vec::new());
        }
    }

    /// Records an edge of exactly `level` for the bulk builders: its
    /// adjacency entries in the store of its class, and its endpoints'
    /// self-marks into `marks`.
    fn record_bulk_edge(
        &self,
        level: usize,
        edge: Edge,
        status: Status,
        marks: &mut SingletonMarks,
    ) {
        let (store, mark) = if status == Status::Spanning {
            (&self.tree_adj, Mark::Spanning)
        } else {
            (&self.nontree_adj, Mark::NonSpanning)
        };
        for (x, far) in ends(edge) {
            store.add(level, x, far);
            marks.set(level, mark, x);
        }
    }

    // ----- internal helpers ---------------------------------------------------

    /// Inserts the adjacency information of a non-spanning edge at `level`
    /// and raises the subtree flags (paper Listing 6, `add_info`). Lock-free.
    pub(crate) fn add_nonspanning_info(&self, level: usize, edge: Edge) {
        let forest = self.forest(level);
        for (v, far) in ends(edge) {
            self.nontree_adj.add(level, v, far);
            forest.mark_path_upward(v, Mark::NonSpanning);
        }
    }

    /// Removes one copy of the adjacency information of a non-spanning edge
    /// at `level` (paper Listing 6, `remove_info`). Lock-free; flags are only
    /// lowered with the re-check dance so racing insertions are never lost.
    pub(crate) fn remove_nonspanning_info(&self, level: usize, edge: Edge) {
        let forest = self.forest(level);
        for (v, far) in ends(edge) {
            self.nontree_adj.remove(level, v, far);
            if self.nontree_adj.is_empty(level, v) {
                forest.set_vertex_self_mark(v, Mark::NonSpanning, false);
                if !self.nontree_adj.is_empty(level, v) {
                    // A concurrent insertion raced with the clearing; restore.
                    forest.set_vertex_self_mark(v, Mark::NonSpanning, true);
                }
            }
        }
    }

    /// Fallible [`Hdt::make_spanning`] for the add path (always level 0):
    /// the single forest link is attempted through
    /// [`EulerForest::try_link`], and on rejection nothing — no adjacency
    /// record, no mark, no event — has happened yet.
    fn try_make_spanning_level0(&self, edge: Edge) -> Result<(), dc_ett::ArenaExhausted> {
        let (u, v) = edge.endpoints();
        self.forest(0).try_link(u, v)?;
        dc_obs::event(dc_obs::EventKind::Link, 0, dc_obs::pack_edge(u, v));
        let forest = self.forest(0);
        for (x, far) in ends(edge) {
            self.tree_adj.add(0, x, far);
            forest.mark_path_upward(x, Mark::Spanning);
        }
        Ok(())
    }

    /// Makes `edge` a spanning edge at `level`: links it into forests
    /// `0..=level`, records it in the exact-level spanning adjacency and
    /// raises the spanning subtree flags. Caller must hold the locks.
    fn make_spanning(&self, edge: Edge, level: usize) {
        let (u, v) = edge.endpoints();
        dc_obs::event(
            dc_obs::EventKind::Link,
            level as u64,
            dc_obs::pack_edge(u, v),
        );
        for lvl in 0..=level {
            self.forest(lvl).link(u, v);
        }
        let forest = self.forest(level);
        for (x, far) in ends(edge) {
            self.tree_adj.add(level, x, far);
            forest.mark_path_upward(x, Mark::Spanning);
        }
    }

    fn remove_tree_adj(&self, level: usize, edge: Edge) {
        let forest = self.forest(level);
        for (x, far) in ends(edge) {
            self.tree_adj.remove(level, x, far);
            if self.tree_adj.is_empty(level, x) {
                forest.set_vertex_self_mark(x, Mark::Spanning, false);
            }
        }
    }

    /// Removes a spanning edge of the given level: cuts it out of every
    /// forest that contains it, searches for a replacement level by level
    /// (sampling the smaller side first, and promoting edges only when the
    /// sample is inconclusive), and either reconnects the trees with
    /// the replacement or commits the split (paper Section 4.1 plus the
    /// prepared-cut trick that keeps readers from ever observing a transient
    /// split when a replacement exists).
    fn remove_spanning_edge(&self, edge: Edge, level: usize) {
        let (u, v) = edge.endpoints();
        // Announce the removal for the conflict handshake with concurrent
        // non-blocking additions (see `crate::nonblocking`): the marker is
        // keyed by the component representative readers observe, and it stays
        // published for the whole replacement search.
        let component_root = self.forest(0).component_root(u);
        self.publish_removal(
            component_root,
            Arc::new(RemovalOp {
                edge: edge.endpoints(),
            }),
        );
        self.remove_tree_adj(level, edge);
        // Cut the edge from every forest that contains it. Levels >= 1 are
        // invisible to readers and are cut outright; level 0 is only
        // *prepared* so concurrent readers keep seeing one component until we
        // know whether a replacement exists.
        if level >= 1 {
            for lvl in (1..=level).rev() {
                self.forest(lvl).cut(u, v);
            }
        }
        let prepared = self.forest(0).prepare_cut(u, v);
        dc_obs::event(
            dc_obs::EventKind::Cut,
            level as u64,
            dc_obs::pack_edge(u, v),
        );

        let search_span = dc_obs::span(dc_obs::SpanId::ReplacementSearch);
        let mut replacement: Option<(Edge, usize)> = None;
        for lvl in (0..=level).rev() {
            let forest = self.forest(lvl);
            let ru = forest.component_root(u);
            let rv = forest.component_root(v);
            debug_assert_ne!(ru, rv, "forest {lvl} still connected after the cut");
            let small_root = if forest.tree_size(ru) <= forest.tree_size(rv) {
                ru
            } else {
                rv
            };
            // 1. Sample the smaller side's non-spanning edges, promoting
            //    nothing (DESIGN.md §15).
            if self.sampling_limit > 0 {
                let sample = ScanPass::Sample {
                    left: self.sampling_limit,
                };
                match self.scan_for_replacement(lvl, small_root, sample) {
                    ScanEnd::Found(found) => {
                        replacement = Some((found, lvl));
                        break;
                    }
                    // The sample saw every candidate of this level: there is
                    // no replacement here, and no scan left to pay for.
                    ScanEnd::Exhausted => continue,
                    ScanEnd::BudgetSpent => self.tally.add(Counter::HdtSampleBudgetsSpent, 1),
                }
            }
            // 2. Promote exact-level spanning edges of the smaller side.
            self.promote_spanning_edges(lvl, small_root);
            // 3. Scan for a replacement, promoting every other candidate.
            if let ScanEnd::Found(found) =
                self.scan_for_replacement(lvl, small_root, ScanPass::Full { promoted: 0 })
            {
                replacement = Some((found, lvl));
                break;
            }
        }
        drop(search_span);
        dc_obs::event(
            dc_obs::EventKind::ReplacementSearch,
            level as u64,
            replacement.map_or(0, |(_, lvl)| lvl as u64 + 1),
        );

        match replacement {
            Some((found, lvl)) => {
                self.tally.add(Counter::HdtReplacementsFound, 1);
                // The scan already moved the edge's state to `Spanning(lvl)`.
                self.remove_nonspanning_info(lvl, found);
                let (fu, fv) = found.endpoints();
                dc_obs::event(
                    dc_obs::EventKind::Link,
                    lvl as u64,
                    dc_obs::pack_edge(fu, fv),
                );
                for l in 0..=lvl {
                    self.forest(l).link(fu, fv);
                }
                // The level-0 link rewired the prepared pieces back into one
                // tour and overwrote the last stale parent pointer that
                // could lead to the cut's two tour edge nodes; they are now
                // unreachable for new traversals and can wait out their
                // grace period.
                self.forest(0).retire_cut_nodes(&prepared);
                let forest = self.forest(lvl);
                for (x, far) in ends(found) {
                    self.tree_adj.add(lvl, x, far);
                    forest.mark_path_upward(x, Mark::Spanning);
                }
            }
            None => {
                // `commit_cut` retires the pair itself.
                self.forest(0).commit_cut(&prepared);
            }
        }
        self.unpublish_removal(component_root);
    }

    /// Promotes every spanning edge of exactly `level` inside the tree of
    /// `root` (in the level-`level` forest) to `level + 1`, guided by the
    /// forest's mark-filtered walk, which prunes whole subtrees through
    /// their aggregate flags and repairs them post-order.
    fn promote_spanning_edges(&self, level: usize, root: NodeRef) {
        let forest = self.forest(level);
        let mut promoted = 0;
        forest.visit_marked_vertices(root, Mark::Spanning, |vertex| {
            promoted += self.promote_vertex_spanning_edges(level, vertex);
            ControlFlow::Continue(())
        });
        self.tally.add(Counter::HdtPromotions, promoted);
    }

    /// The per-vertex payload of [`Hdt::promote_spanning_edges`]: drains the
    /// exact-level spanning adjacency slot of `vertex`, promoting each edge
    /// one level up, and returns how many it promoted. Harmless on vertices
    /// with an empty slot.
    fn promote_vertex_spanning_edges(&self, level: usize, vertex: u32) -> u64 {
        let forest = self.forest(level);
        let mut promoted = 0u64;
        // Promotion is a drain: every copy in this slot either moves up
        // one level or is a stale duplicate to discard, so `pop` removes
        // entries one at a time with no snapshot allocation.
        while let Some(far) = self.tree_adj.pop(level, vertex) {
            let edge = Edge::new(vertex, far);
            // The edge may have been promoted already through its other
            // endpoint; the state map is the source of truth (a stale
            // copy is simply dropped — `pop` already removed it).
            let state = match self.states.get(&edge) {
                Some(st) if st.status() == Status::Spanning && st.level() as usize == level => st,
                _ => continue,
            };
            let next_level = level + 1;
            assert!(
                next_level < self.levels.len(),
                "level structure overflow: component-size invariant violated"
            );
            let (eu, ev) = edge.endpoints();
            // Move the exact-level adjacency up one level (our own copy
            // is already popped; this clears the other endpoint's copy
            // and lowers emptied self marks).
            self.remove_tree_adj(level, edge);
            self.forest(next_level).link(eu, ev);
            let upper = self.forest(next_level);
            for (x, far) in ends(edge) {
                self.tree_adj.add(next_level, x, far);
                upper.mark_path_upward(x, Mark::Spanning);
            }
            self.states
                .insert(edge, state.with(Status::Spanning, next_level as u8));
            promoted += 1;
        }
        if promoted > 0 {
            dc_obs::event(dc_obs::EventKind::LevelPromotion, promoted, level as u64);
        }
        if self.tree_adj.is_empty(level, vertex) {
            forest.set_vertex_self_mark(vertex, Mark::Spanning, false);
        }
        promoted
    }

    /// Scans the non-spanning edges of exactly `level` adjacent to the tree
    /// of `root` for a replacement, treating the others as `pass` says.
    ///
    /// When a replacement is found its state has already been advanced to
    /// `Spanning(level)`; the caller links it into the forests. The break
    /// aborts the forest's walk — pending aggregate repairs are skipped,
    /// which is the conservative direction (see
    /// [`EulerForest::visit_marked_vertices`]).
    fn scan_for_replacement(&self, level: usize, root: NodeRef, mut pass: ScanPass) -> ScanEnd {
        let forest = self.forest(level);
        let mut end = ScanEnd::Exhausted;
        forest.visit_marked_vertices(root, Mark::NonSpanning, |vertex| {
            self.scan_vertex(level, vertex, root, &mut pass)
                .map_break(|stop| end = stop)
        });
        if let ScanPass::Full { promoted } = pass {
            self.tally.add(Counter::HdtPromotions, promoted);
        }
        end
    }

    /// Returns `true` if `edge`, whose endpoint other than `far` lies in
    /// the scanned tree of `root`, reconnects the two pieces of the
    /// level-`level` forest (exact, writer-side check — valid under the
    /// component lock). One climb, from the far endpoint: the scanned
    /// side's root is already known.
    fn crosses(&self, level: usize, edge: Edge, far: u32, root: NodeRef) -> bool {
        let forest = self.forest(level);
        let crosses = forest.component_root(far) != root;
        debug_assert_eq!(
            crosses,
            forest.component_root(edge.u()) != forest.component_root(edge.v()),
            "{edge:?}: the near endpoint is outside the scanned tree"
        );
        crosses
    }

    /// The per-vertex body of [`Hdt::scan_for_replacement`]: breaks with
    /// the replacement it claimed, or when a sample pass spent its budget.
    fn scan_vertex(
        &self,
        level: usize,
        vertex: u32,
        root: NodeRef,
        pass: &mut ScanPass,
    ) -> ControlFlow<ScanEnd> {
        // Allocation-free visit: edges stream through the store's fixed
        // chunk buffer, and the closure may mutate the very slot being
        // visited (promotions below remove from it) — the visitor restarts
        // on reorganization, and every arm here is idempotent per edge.
        let mut end = None;
        let _ = self.nontree_adj.for_each_edge(level, vertex, |far| {
            let edge = Edge::new(vertex, far);
            let state = match self.states.get(&edge) {
                Some(st) => st,
                // Removed concurrently; the copy is cleaned by its owner.
                None => return ControlFlow::Continue(()),
            };
            let initial = match state.status() {
                // A lock-free addition is in flight (level is always 0 for
                // Initial edges). Both passes help it complete (paper
                // Listing 10).
                Status::Initial => {
                    debug_assert_eq!(level, 0);
                    true
                }
                Status::NonSpanning if state.level() as usize == level => false,
                // Spanning, InProgress or stale-level copies: skip.
                _ => return ControlFlow::Continue(()),
            };
            if self.crosses(level, edge, far, root) {
                if self
                    .states
                    .compare_exchange(&edge, &state, state.with(Status::Spanning, level as u8))
                    .is_ok()
                {
                    end = Some(ScanEnd::Found(edge));
                    return ControlFlow::Break(());
                }
                return ControlFlow::Continue(());
            }
            if initial {
                // Help finish the addition as a non-spanning edge:
                // publish a second info copy first (the original adder
                // retracts its own copy when its CAS fails), so the edge
                // is never visible as NonSpanning without adjacency
                // information.
                self.add_nonspanning_info(level, edge);
                if self
                    .states
                    .compare_exchange(&edge, &state, state.with(Status::NonSpanning, level as u8))
                    .is_err()
                {
                    self.remove_nonspanning_info(level, edge);
                }
            } else if let ScanPass::Full { promoted } = pass {
                // Promote the edge to the next level (it cannot be a
                // replacement now and will stay non-spanning there).
                let next_level = level + 1;
                assert!(next_level < self.levels.len(), "level structure overflow");
                self.add_nonspanning_info(next_level, edge);
                if self
                    .states
                    .compare_exchange(
                        &edge,
                        &state,
                        state.with(Status::NonSpanning, next_level as u8),
                    )
                    .is_ok()
                {
                    self.remove_nonspanning_info(level, edge);
                    *promoted += 1;
                } else {
                    self.remove_nonspanning_info(next_level, edge);
                }
            }
            // The sample pass counts every non-crossing edge it met, helped
            // ones too, so it looks at no more than its budget per level.
            if let ScanPass::Sample { left } = pass {
                *left -= 1;
                if *left == 0 {
                    end = Some(ScanEnd::BudgetSpent);
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        end.map_or(ControlFlow::Continue(()), ControlFlow::Break)
    }

    /// Validates the full structure (intended for tests): every forest's
    /// internal invariants, the consistency of the state map with the
    /// spanning forests, and the HDT level invariants.
    pub fn validate(&self) {
        // A level that was never materialized trivially holds no edges and
        // all-singleton components; only built forests need validating.
        for level in self.levels.iter() {
            if let Some(forest) = level.get() {
                forest.validate();
            }
        }
        self.states.for_each(|edge, state| {
            let (u, v) = edge.endpoints();
            match state.status() {
                Status::Spanning => {
                    for (lvl, level) in self.levels.iter().enumerate() {
                        let present = level.get().is_some_and(|f| f.has_tree_edge(u, v));
                        if lvl <= state.level() as usize {
                            assert!(present, "spanning edge {edge:?} missing from forest {lvl}");
                        } else {
                            assert!(!present, "spanning edge {edge:?} present above its level");
                        }
                    }
                }
                Status::NonSpanning => {
                    let lvl = state.level() as usize;
                    assert!(
                        self.forest(0).same_tree_locked(u, v),
                        "non-spanning edge {edge:?} crosses components"
                    );
                    assert!(
                        self.nontree_adj.contains(lvl, u, v)
                            && self.nontree_adj.contains(lvl, v, u),
                        "non-spanning edge {edge:?} missing adjacency info at level {lvl}"
                    );
                    for level in self.levels.iter() {
                        if let Some(forest) = level.get() {
                            assert!(!forest.has_tree_edge(u, v));
                        }
                    }
                }
                Status::Initial | Status::InProgress => {}
            }
        });
        // Level-structure invariant: components at level i have at most
        // n / 2^i vertices.
        for (lvl, level) in self.levels.iter().enumerate() {
            let Some(forest) = level.get() else {
                continue; // all components are singletons
            };
            let bound = (self.n as f64 / 2f64.powi(lvl as i32)).ceil() as u32;
            for v in 0..self.n as u32 {
                assert!(
                    forest.component_size(v) <= bound.max(1),
                    "component of {v} at level {lvl} exceeds n/2^{lvl}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_performs_no_adjacency_allocations() {
        // The acceptance bar for the flat store: a million-vertex structure
        // must come up with zero materialized adjacency slots (memory scales
        // with touched (level, vertex) pairs, not n log n) and only the
        // level-0 forest built.
        let hdt = Hdt::new(1_000_000);
        assert_eq!(hdt.nontree_store().materialized_slots(), 0);
        assert_eq!(hdt.tree_store().materialized_slots(), 0);
        assert_eq!(hdt.nontree_store().materialized_pages(), 0);
        assert_eq!(hdt.tree_store().materialized_pages(), 0);
        assert_eq!(hdt.materialized_forest_levels(), 1);
        // Queries on the fresh structure touch nothing.
        assert!(!hdt.connected(0, 999_999));
        assert_eq!(hdt.nontree_store().materialized_pages(), 0);
        // The first cycle-closing edge touches exactly its two level-0
        // non-spanning slots.
        hdt.add_edge_locked(1, 2);
        hdt.add_edge_locked(2, 3);
        hdt.add_edge_locked(1, 3);
        // Spanning edges (1,2) and (2,3) touch the three level-0 tree slots
        // of vertices 1, 2 and 3; the cycle edge (1,3) touches the two
        // level-0 non-tree slots of vertices 1 and 3.
        assert_eq!(hdt.nontree_store().materialized_slots(), 2);
        assert_eq!(hdt.tree_store().materialized_slots(), 3);
    }

    /// Adds two 4-cliques, {0..4} and {4..8}, then the spanning bridge
    /// (0, 4). Cutting the bridge leaves two equal halves, so whichever the
    /// search takes as the smaller side holds three spanning edges and three
    /// non-crossing non-spanning edges, in any slot visiting order.
    fn two_cliques_and_a_bridge(hdt: &Hdt) {
        for base in [0, 4] {
            for u in base..base + 4 {
                for v in (u + 1)..base + 4 {
                    hdt.add_edge_locked(u, v);
                }
            }
        }
        hdt.add_edge_locked(0, 4);
    }

    /// A triangle (spanning (0, 1) and (1, 2), non-spanning (0, 2)) and a
    /// spanning edge (3, 4).
    fn triangle_and_bridge() -> Hdt {
        let hdt = Hdt::new(8);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4)] {
            hdt.add_edge_locked(u, v);
        }
        hdt
    }

    #[test]
    fn export_reports_each_edge_once_at_its_level() {
        let hdt = triangle_and_bridge();
        let (mut spanning, mut nonspanning) = (Vec::new(), Vec::new());
        hdt.export_edges_locked(
            |u, v, level| spanning.push((u, v, level)),
            |u, v, level| nonspanning.push((u, v, level)),
        );
        spanning.sort_unstable();
        assert_eq!(spanning, [(0, 1, 0), (1, 2, 0), (3, 4, 0)]);
        assert_eq!(nonspanning, [(0, 2, 0)]);
    }

    #[test]
    #[should_panic(expected = "forest 0 disagrees")]
    fn export_rejects_a_spanning_state_no_forest_holds() {
        let hdt = triangle_and_bridge();
        hdt.states
            .insert(Edge::new(5, 6), EdgeState::new(Status::Spanning, 0));
        hdt.export_edges_locked(|_, _, _| {}, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "non-tree adjacency level 0")]
    fn export_rejects_a_nonspanning_state_off_its_adjacency_level() {
        let hdt = triangle_and_bridge();
        hdt.states
            .insert(Edge::new(0, 2), EdgeState::new(Status::NonSpanning, 1));
        hdt.export_edges_locked(|_, _, _| {}, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "at a quiescent point")]
    fn export_rejects_an_insertion_in_flight() {
        let hdt = triangle_and_bridge();
        hdt.states.insert(Edge::new(5, 6), EdgeState::initial());
        hdt.export_edges_locked(|_, _, _| {}, |_, _, _| {});
    }

    #[test]
    fn upper_forest_levels_materialize_only_when_promoted_into() {
        let hdt = Hdt::with_sampling(16, 0); // sampling off => eager promotion
        assert_eq!(hdt.materialized_forest_levels(), 1);
        two_cliques_and_a_bridge(&hdt);
        // A non-spanning second bridge (1, 5) to replace (0, 4).
        hdt.add_edge_locked(1, 5);
        assert_eq!(hdt.materialized_forest_levels(), 1);
        hdt.remove_edge_locked(0, 4);
        assert!(hdt.connected(0, 4), "(1, 5) replaces the bridge");
        assert!(
            hdt.materialized_forest_levels() > 1,
            "promotions must have reached level 1"
        );
        assert!(hdt.materialized_forest_levels() <= hdt.num_levels());
        assert!(
            !hdt.forest(1).hints_materialized(),
            "upper-level forests are never queried, so they must not pay the hint table"
        );
        assert!(
            hdt.forest(1).is_writer_private() && !hdt.forest(0).is_writer_private(),
            "only level 0 carries version words"
        );
        assert_eq!(hdt.stats().sample_budgets_spent, 0, "no sample pass ran");
        hdt.validate();
    }

    #[test]
    fn the_default_sample_budget_is_log_squared_from_sixteen() {
        assert_eq!(default_sampling_limit(1), 16);
        assert_eq!(default_sampling_limit(2), 16);
        assert_eq!(default_sampling_limit(16), 16);
        assert_eq!(default_sampling_limit(17), 25);
        assert_eq!(default_sampling_limit(1 << 18), 324);
        assert_eq!(default_sampling_limit(490_000), 361);
    }

    #[test]
    fn a_replacement_found_by_the_sample_promotes_nothing() {
        let hdt = Hdt::new(16);
        two_cliques_and_a_bridge(&hdt);
        // The smaller side holds four non-spanning edges, the replacement
        // among them: all within the default budget.
        hdt.add_edge_locked(1, 5);
        hdt.remove_edge_locked(0, 4);
        assert!(hdt.connected(0, 4), "(1, 5) replaces the bridge");
        assert_eq!(
            hdt.materialized_forest_levels(),
            1,
            "a replacement found by the sample must not promote"
        );
        assert_eq!(hdt.stats().promotions, 0);
        hdt.validate();
    }

    #[test]
    fn a_split_whose_side_fits_the_budget_promotes_nothing() {
        let hdt = Hdt::new(16);
        two_cliques_and_a_bridge(&hdt);
        // Three non-spanning edges on the smaller side, fewer than the
        // budget: the sample sees them all, so the level has no replacement.
        hdt.remove_edge_locked(0, 4);
        assert!(!hdt.connected(0, 4), "nothing replaces the bridge");
        assert_eq!(hdt.component_size(0), 4);
        assert_eq!(
            hdt.materialized_forest_levels(),
            1,
            "a sample that saw every candidate must not promote"
        );
        assert_eq!(hdt.stats().sample_budgets_spent, 0);
        hdt.validate();
    }

    #[test]
    fn a_spent_sampling_budget_falls_back_to_promotion() {
        let hdt = Hdt::with_sampling(16, 1);
        two_cliques_and_a_bridge(&hdt);
        // Three non-crossing non-spanning edges and no crossing one: a
        // budget of 1 runs out, so the level promotes and scans in full.
        hdt.remove_edge_locked(0, 4);
        assert!(!hdt.connected(0, 4), "nothing replaces the bridge");
        assert!(
            hdt.materialized_forest_levels() > 1,
            "a spent budget must fall back to promotion"
        );
        assert!(hdt.stats().sample_budgets_spent >= 1);
        assert!(hdt.stats().promotions > 0);
        hdt.validate();
    }

    #[test]
    fn empty_structure_answers_queries() {
        let hdt = Hdt::new(8);
        assert!(hdt.connected(3, 3));
        assert!(!hdt.connected(0, 7));
        assert_eq!(hdt.component_size(4), 1);
        assert!(!hdt.has_edge(0, 1));
        hdt.validate();
    }

    #[test]
    fn add_and_remove_single_edge() {
        let hdt = Hdt::new(4);
        assert!(hdt.add_edge_locked(0, 1));
        assert!(!hdt.add_edge_locked(0, 1), "duplicate add must be rejected");
        assert!(hdt.connected(0, 1));
        assert!(hdt.has_edge(1, 0));
        hdt.validate();
        assert!(hdt.remove_edge_locked(0, 1));
        assert!(!hdt.remove_edge_locked(0, 1));
        assert!(!hdt.connected(0, 1));
        hdt.validate();
    }

    #[test]
    fn non_spanning_edge_removal_keeps_connectivity() {
        let hdt = Hdt::new(4);
        hdt.add_edge_locked(0, 1);
        hdt.add_edge_locked(1, 2);
        hdt.add_edge_locked(0, 2); // closes a cycle: non-spanning
        let stats = hdt.stats();
        assert_eq!(stats.non_spanning_additions, 1);
        hdt.validate();
        assert!(hdt.remove_edge_locked(0, 2));
        assert!(
            hdt.connected(0, 2),
            "removing a cycle edge keeps connectivity"
        );
        hdt.validate();
    }

    #[test]
    fn spanning_edge_removal_finds_replacement() {
        let hdt = Hdt::new(4);
        hdt.add_edge_locked(0, 1); // spanning
        hdt.add_edge_locked(1, 2); // spanning
        hdt.add_edge_locked(0, 2); // non-spanning (cycle)
        assert!(hdt.remove_edge_locked(0, 1));
        assert!(
            hdt.connected(0, 1),
            "the non-spanning edge (0,2) must replace the removed spanning edge"
        );
        assert_eq!(hdt.stats().replacements_found, 1);
        hdt.validate();
        assert!(hdt.remove_edge_locked(1, 2));
        assert!(hdt.connected(0, 2));
        assert!(!hdt.connected(1, 2) || hdt.connected(1, 2));
        hdt.validate();
    }

    #[test]
    fn spanning_edge_removal_without_replacement_splits() {
        let hdt = Hdt::new(6);
        for v in 0..5 {
            hdt.add_edge_locked(v, v + 1);
        }
        assert!(hdt.remove_edge_locked(2, 3));
        assert!(!hdt.connected(0, 5));
        assert!(hdt.connected(0, 2));
        assert!(hdt.connected(3, 5));
        hdt.validate();
    }

    #[test]
    fn dense_component_survives_many_spanning_removals() {
        // Complete graph on 8 vertices: any spanning edge removal must find a
        // replacement, possibly promoting edges through several levels.
        let n = 8u32;
        let hdt = Hdt::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                hdt.add_edge_locked(u, v);
            }
        }
        hdt.validate();
        // Remove edges one by one in arbitrary order; connectivity must hold
        // until fewer than n-1 edges remain ... we only remove half of them.
        let mut removed = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + v) % 2 == 0 && removed < 14 {
                    assert!(hdt.remove_edge_locked(u, v));
                    removed += 1;
                    assert!(hdt.connected(0, n - 1));
                }
            }
        }
        hdt.validate();
    }

    #[test]
    fn lock_components_locks_current_roots() {
        let hdt = Hdt::new(6);
        hdt.add_edge_locked(0, 1);
        hdt.add_edge_locked(2, 3);
        let locked = hdt.lock_components(0, 2);
        assert_eq!(locked.count, 2);
        // Same-component locking takes a single lock.
        hdt.unlock_components(locked);
        let locked = hdt.lock_components(0, 1);
        assert_eq!(locked.count, 1);
        hdt.unlock_components(locked);
        // with_components_locked releases on exit.
        let answer = hdt.with_components_locked(0, 3, || hdt.connected_locked(0, 3));
        assert!(!answer);
        let locked = hdt.lock_components(0, 3);
        hdt.unlock_components(locked);
    }

    #[test]
    fn stats_snapshot_rates() {
        let hdt = Hdt::new(5);
        hdt.add_edge_locked(0, 1);
        hdt.add_edge_locked(1, 2);
        hdt.add_edge_locked(0, 2);
        hdt.remove_edge_locked(0, 2);
        hdt.remove_edge_locked(0, 1);
        let stats = hdt.stats();
        assert_eq!(stats.additions, 3);
        assert_eq!(stats.non_spanning_additions, 1);
        assert_eq!(stats.removals, 2);
        assert_eq!(stats.non_spanning_removals, 1);
        assert!((stats.non_spanning_addition_rate() - 100.0 / 3.0).abs() < 1e-9);
        assert!((stats.non_spanning_removal_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn two_structures_export_separate_series() {
        let (a, b) = (Hdt::new(8), Hdt::new(8));
        a.add_edge_locked(0, 1);
        a.add_edge_locked(1, 2);
        a.add_edge_locked(0, 2);
        a.remove_edge_locked(0, 1);
        b.add_edge_locked(3, 4);
        assert!(a.connected(0, 2) && !b.connected(0, 2));
        let snap = dc_obs::ObsSnapshot::gather(&[("a", a.tally()), ("b", b.tally())]);
        let text = snap.to_prometheus();
        for (label, hdt) in [("a", &a), ("b", &b)] {
            let stats = hdt.stats();
            for (c, value) in [
                (Counter::HdtAdditions, stats.additions),
                (
                    Counter::HdtNonSpanningAdditions,
                    stats.non_spanning_additions,
                ),
                (Counter::HdtRemovals, stats.removals),
                (Counter::HdtReplacementsFound, stats.replacements_found),
                (Counter::HintHits, stats.read_hint_hits),
                (Counter::HintMisses, stats.read_hint_misses),
            ] {
                let series = format!("dc_{}_total{{instance=\"{label}\"}} {value}\n", c.name());
                assert!(text.contains(&series), "missing {series:?} in\n{text}");
            }
        }
        assert_eq!((a.stats().additions, b.stats().additions), (3, 1));
        assert_eq!(snap.counter(Counter::HdtAdditions), 4);
        assert_eq!(snap.counter(Counter::HintMisses), 4);
    }

    #[test]
    fn connected_many_matches_per_pair_connected() {
        let hdt = Hdt::new(16);
        for v in 0..7 {
            hdt.add_edge_locked(v, v + 1); // one path component 0..=7
        }
        hdt.add_edge_locked(9, 10);
        let pairs: Vec<(u32, u32)> = vec![
            (0, 7),
            (3, 3),
            (0, 9),
            (9, 10),
            (10, 9), // repeated pair, other orientation
            (5, 2),
            (11, 12),
            (0, 7), // repeated pair
        ];
        // Cold cache, warm cache, and hints-off must all agree with the
        // one-at-a-time protocol.
        for enabled in [true, true, false] {
            hdt.set_read_hints(enabled);
            let mut bulk = Vec::new();
            hdt.connected_many(&pairs, &mut bulk);
            let single: Vec<bool> = pairs.iter().map(|&(u, v)| hdt.connected(u, v)).collect();
            assert_eq!(bulk, single);
            assert_eq!(bulk, vec![true, true, false, true, true, true, false, true]);
        }
        hdt.set_read_hints(true);
        let stats = hdt.stats();
        assert!(
            stats.read_hint_hits > 0,
            "warm bulk queries must hit the hint cache: {stats:?}"
        );
    }

    #[test]
    fn randomized_against_bfs_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 24usize;
        let hdt = Hdt::new(n);
        let mut rng = StdRng::seed_from_u64(2024);
        let mut present: Vec<(u32, u32)> = Vec::new();
        let mut edge_set = std::collections::HashSet::new();
        let connected_model = |edges: &std::collections::HashSet<(u32, u32)>, a: u32, b: u32| {
            if a == b {
                return true;
            }
            let mut visited = std::collections::HashSet::new();
            let mut queue = std::collections::VecDeque::new();
            visited.insert(a);
            queue.push_back(a);
            while let Some(x) = queue.pop_front() {
                if x == b {
                    return true;
                }
                for &(p, q) in edges.iter() {
                    let next = if p == x {
                        Some(q)
                    } else if q == x {
                        Some(p)
                    } else {
                        None
                    };
                    if let Some(y) = next {
                        if visited.insert(y) {
                            queue.push_back(y);
                        }
                    }
                }
            }
            false
        };
        for step in 0..4000 {
            let op = rng.gen_range(0..100);
            if op < 45 || present.is_empty() {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v && !edge_set.contains(&(u.min(v), u.max(v))) {
                    hdt.add_edge_locked(u, v);
                    edge_set.insert((u.min(v), u.max(v)));
                    present.push((u.min(v), u.max(v)));
                }
            } else if op < 80 {
                let idx = rng.gen_range(0..present.len());
                let (u, v) = present.swap_remove(idx);
                edge_set.remove(&(u, v));
                assert!(hdt.remove_edge_locked(u, v));
            } else {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                assert_eq!(
                    hdt.connected(a, b),
                    connected_model(&edge_set, a, b),
                    "connectivity mismatch at step {step} for ({a}, {b})"
                );
            }
            if step % 1000 == 999 {
                hdt.validate();
            }
        }
        hdt.validate();
    }
}
