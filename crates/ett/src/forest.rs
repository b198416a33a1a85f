//! The single-writer, multi-reader concurrent Euler Tour Tree forest.
//!
//! An [`EulerForest`] maintains one Euler tour per spanning tree of a forest
//! over `n` vertices, each tour stored in a Cartesian tree (treap).  It is
//! the data structure of Section 3 of the paper:
//!
//! * [`EulerForest::connected`] / [`EulerForest::find_root`] are lock-free
//!   and may be called from any number of threads at any time
//!   (Listing 1 of the paper).
//! * Structural operations ([`EulerForest::link`], [`EulerForest::cut`],
//!   [`EulerForest::prepare_cut`] / [`EulerForest::commit_cut`]) follow the
//!   single-writer discipline: for any given component, at most one thread
//!   may be running a structural operation at a time.  The dynamic
//!   connectivity layer enforces this with a global lock (coarse-grained
//!   variants) or per-component locks (fine-grained variants).
//!
//! Structural operations are split into a *logical* part — one store that
//! readers observe as the linearization point — and a *physical* part that
//! restructures the treaps while preserving, at every instant, the invariant
//! that every node reaches its component's current representative by
//! following parent pointers (see `crate::treap` for the mechanics).
//!
//! # Side tables and reclamation
//!
//! Per-node state that is only meaningful on component representatives —
//! the root **version** the reader protocol snapshots and the per-component
//! **lock** of the fine-grained variants — lives in per-vertex side tables
//! here rather than inside every [`Node`]: the priority-band invariant makes
//! every complete-tour treap root a vertex node, so indexing by the root's
//! vertex id is total.  This halves the node footprint (see
//! [`crate::node`]).
//!
//! Lock-free traversals ([`EulerForest::find_root`],
//! [`EulerForest::connected`], [`EulerForest::mark_path_upward`]) pin the
//! arena's epoch domain, which lets `cut` *retire* its two Euler-tour edge
//! nodes for recycling instead of leaking them (see [`crate::arena`] and
//! `DESIGN.md` §4).  A [`PreparedCut`] must be finished with exactly one of
//! [`EulerForest::commit_cut`] (which retires the pair) or
//! [`EulerForest::retire_cut_nodes`] (for the replacement-found path that
//! relinks the pieces instead of committing).
//!
//! # The root-hint fast path
//!
//! On top of the Listing-1 protocol sits a per-vertex [`HintCache`]: a
//! validated `(root_vertex, version)` snapshot per vertex, installed by
//! readers on the way out of a successful climb.  Bit 0 of every version
//! word is a **busy bit**: a structural operation sets it on each
//! representative it touches before its first reader-visible store and
//! clears it (another bump) after its last one.  Claims carrying the busy
//! bit are never installed and never validate, so "the hinted root's
//! version is still the recorded, non-busy one" proves no operation on the
//! component started or ran since the snapshot — and hence the vertex's
//! membership is unchanged — so a repeat query on a stable component is a
//! handful of loads instead of two O(depth) pointer climbs.  Stale hints
//! fail validation and fall back to the climb (which refreshes them); see
//! `DESIGN.md` §8 for the safety argument and [`crate::hints`] for the
//! encoding.

use crate::arena::{Arena, ArenaExhausted, NodeRef};
use crate::hints::HintCache;
use crate::node::{Mark, Node};
use dc_obs::{Counter, Tally};
use dc_sync::epoch::EpochGuard;
use dc_sync::{RawRwLock, ShardedMap};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Upper bound on the interleaved read engine's in-flight climb count (the
/// per-group state array lives on the stack, so the cap keeps it small).
pub const MAX_INTERLEAVE_WIDTH: usize = 32;

/// Default number of in-flight climbs (see `DESIGN.md` §10: wide enough to
/// cover a DRAM round-trip with useful work, narrow enough that the states
/// themselves stay cache-resident).
const DEFAULT_INTERLEAVE_WIDTH: usize = 8;

/// How many times one in-flight climb may restart (validation failure under
/// concurrent restructuring) before the group bails it out to the scalar
/// retry loop — this bounds how long a group's epoch pin can be held.
const INTERLEAVE_RETRY_CAP: u8 = 4;

/// Hint-validation batch: slot lines are prefetched this many endpoints
/// ahead of the loads that consume them.
const HINT_PREFETCH_BATCH: usize = 16;

/// Bit 0 of a root version word: set while a structural operation is
/// between its first and last reader-visible store on that component
/// (`DESIGN.md` §8). Versions therefore advance by two per operation.
const BUSY: u64 = 1;

/// Increment of the SplitMix64 priority sequence (the golden-ratio gamma).
const PRIORITY_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// The priority at position `x` of the SplitMix64 sequence: thread-safe
/// over an atomic counter, cheap, and deterministic for a fixed seed. The
/// high half of the mix feeds the 31-bit priority (bit 31 is the
/// vertex/edge band flag).
fn priority_of(x: u64) -> u32 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (((z ^ (z >> 31)) >> 32) as u32) & !(1 << 31)
}

/// Whether a version word (or a claim's recorded version) is mid-operation.
#[inline]
fn is_busy(version: u64) -> bool {
    version & BUSY != 0
}

/// Normalizes an undirected edge key.
#[inline]
fn norm(u: u32, v: u32) -> (u32, u32) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// A spanning-edge cut that has been physically prepared but not yet
/// logically applied.
///
/// Between [`EulerForest::prepare_cut`] and [`EulerForest::commit_cut`] the
/// two would-be trees are fully restructured, yet concurrent readers still
/// observe a single connected component: the root of the detached piece keeps
/// a stale parent pointer into the retained piece.  The dynamic connectivity
/// layer runs its replacement search in this window; if a replacement edge is
/// found it simply links the pieces back together (readers never notice),
/// otherwise it commits the cut with a single parent-pointer store.
#[derive(Clone, Copy, Debug)]
pub struct PreparedCut {
    /// Root of the piece that contains the old component representative.
    pub retained_root: NodeRef,
    /// Root of the piece that becomes a separate component when committed.
    pub detached_root: NodeRef,
    /// Number of vertices in the retained piece.
    pub retained_size: u32,
    /// Number of vertices in the detached piece.
    pub detached_size: u32,
    /// The two directed tour edge nodes split out of the tour, now
    /// singletons awaiting retirement (see [`EulerForest::retire_cut_nodes`]).
    pub edge_nodes: (NodeRef, NodeRef),
}

impl PreparedCut {
    /// Returns `(smaller_root, smaller_size)` of the two prepared pieces —
    /// the side the HDT replacement search scans and promotes.
    pub fn smaller_piece(&self) -> (NodeRef, u32) {
        if self.detached_size <= self.retained_size {
            (self.detached_root, self.detached_size)
        } else {
            (self.retained_root, self.retained_size)
        }
    }
}

/// Reusable buffers for the bulk read path
/// ([`EulerForest::connected_many_with`]): the sorted distinct-endpoint
/// list, its root memo, the raw hint words of the batched validation pass
/// and the pending-climb worklist. Capacity accumulates across calls, so a
/// warmed scratch makes the whole bulk read path allocation-free
/// (asserted by `crates/ett/tests/alloc_free_reads.rs`).
///
/// [`EulerForest::connected_many_into`] keeps one per thread internally;
/// callers managing their own buffers (the batch engine's fan-out workers)
/// can hold one explicitly.
#[derive(Debug, Default)]
pub struct ReadScratch {
    /// Sorted, deduplicated endpoints of the current run.
    endpoints: Vec<u32>,
    /// Validated `(root_vertex, version)` claim per endpoint.
    memo: Vec<(u32, u64)>,
    /// Raw hint word observed per endpoint (fed back to the install CAS).
    raws: Vec<u64>,
    /// Endpoint indices whose hint missed and still need a climb.
    pending: Vec<u32>,
}

impl ReadScratch {
    /// Creates an empty scratch (buffers grow on first use and are reused
    /// from then on).
    pub const fn new() -> Self {
        ReadScratch {
            endpoints: Vec::new(),
            memo: Vec::new(),
            raws: Vec::new(),
            pending: Vec::new(),
        }
    }
}

thread_local! {
    /// The per-thread scratch behind [`EulerForest::connected_many_into`]
    /// (take/put so re-entrancy degrades to a fresh scratch, never aliasing).
    static READ_SCRATCH: Cell<ReadScratch> = const { Cell::new(ReadScratch::new()) };

    /// Reusable two-phase DFS stack of [`EulerForest::visit_marked_vertices`]
    /// (`(node, children_done)` frames), kept per-thread so steady-state
    /// replacement searches allocate nothing.
    static WALK_STACK: Cell<Vec<(NodeRef, bool)>> = const { Cell::new(Vec::new()) };
}

/// One in-flight climb of the interleaved engine: which endpoint it
/// resolves, where the climb currently stands, and the first completed
/// walk's `(root, version)` claim awaiting confirmation by the second.
#[derive(Clone, Copy)]
struct Climb {
    /// Index into `ReadScratch::endpoints`.
    slot: u32,
    /// The vertex node the walk (re)starts from.
    start: NodeRef,
    /// Current position of the walk.
    cur: NodeRef,
    /// Result of the previous completed walk, if any: a claim becomes
    /// validated when the next walk reproduces it exactly.
    first: Option<(NodeRef, u64)>,
    /// Walk restarts consumed (validation failures under churn); at
    /// `INTERLEAVE_RETRY_CAP` the climb is bailed out of the group.
    retries: u8,
}

/// The Euler Tour Tree forest; see the module documentation.
pub struct EulerForest {
    /// Node slots. Slot `v < n` is vertex `v`'s permanent tour node (the
    /// forest's first allocation is the block of all `n`).
    arena: Arena,
    /// Normalized tree edge -> (min->max tour node, max->min tour node).
    edge_nodes: ShardedMap<(u32, u32), (NodeRef, NodeRef)>,
    /// Per-vertex root version, read by the lock-free protocol whenever the
    /// vertex is a component representative (side table, see module docs).
    /// Its length is the vertex count.
    versions: Box<[AtomicU64]>,
    /// Per-vertex component lock, taken by the dynamic connectivity layer
    /// on level-0 representatives. Lazy: upper-level forests never touch it.
    locks: OnceLock<Box<[RawRwLock]>>,
    /// Per-vertex validated root hints (the lock-free read fast path).
    /// Lazy like `locks`: only the forest that answers queries (level 0 of
    /// an HDT structure) ever consults it, so upper-level forests never pay
    /// the O(n) table.
    hints: OnceLock<HintCache>,
    /// Hints are on unless this forest said off. Recorded outside the lazy
    /// cache so `set_read_hints(false)` on a never-queried forest stays
    /// allocation-free.
    hints_off: AtomicBool,
    /// Where hint hits, misses and invalidations are counted.
    tally: Arc<Tally>,
    /// In-flight climb count of the interleaved engine, clamped to
    /// `1..=MAX_INTERLEAVE_WIDTH`.
    interleave_width: AtomicU8,
    prio_state: AtomicU64,
}

impl EulerForest {
    /// Creates a forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, 0x05EE_D0FD_C0DE)
    }

    /// Creates a forest of `n` isolated vertices with an explicit priority
    /// seed (useful for deterministic tests).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        Self::with_tally(n, seed, Arc::default())
    }

    /// [`EulerForest::with_seed`], counting hint events into `tally`: an
    /// HDT hands its forests its own tally, so a structure's counters are
    /// one series.
    pub fn with_tally(n: usize, seed: u64, tally: Arc<Tally>) -> Self {
        let forest = EulerForest {
            arena: Arena::new(),
            edge_nodes: ShardedMap::new(),
            versions: (0..n).map(|_| AtomicU64::new(0)).collect(),
            locks: OnceLock::new(),
            hints: OnceLock::new(),
            hints_off: AtomicBool::new(false),
            tally,
            interleave_width: AtomicU8::new(DEFAULT_INTERLEAVE_WIDTH as u8),
            prio_state: AtomicU64::new(seed | 1),
        };
        // The vertex nodes take the first n draws of the priority sequence,
        // one per vertex in order.
        let start = forest
            .prio_state
            .fetch_add(PRIORITY_STEP.wrapping_mul(n as u64), Ordering::Relaxed);
        let first = forest.arena.alloc_block(n, |v| {
            let x = start.wrapping_add(PRIORITY_STEP.wrapping_mul(v as u64));
            // Vertex nodes draw priorities from the upper band so a tour's
            // treap root is always a vertex node.
            Node::new_vertex(v as u32, priority_of(x) | (1 << 31))
        });
        debug_assert_eq!(first, NodeRef(0), "vertex nodes are the first block");
        forest
    }

    fn next_priority(&self) -> u32 {
        priority_of(self.prio_state.fetch_add(PRIORITY_STEP, Ordering::Relaxed))
    }

    /// Number of vertices in the forest.
    pub fn num_vertices(&self) -> usize {
        self.versions.len()
    }

    /// Number of spanning edges currently in the forest.
    pub fn num_tree_edges(&self) -> usize {
        self.edge_nodes.len()
    }

    /// Number of node slots the arena currently holds (allocated, whether
    /// live or retired). The memory-stability metric tracked by the churn
    /// benchmark: with slot recycling this stays proportional to
    /// [`EulerForest::live_node_count`] instead of growing with the total
    /// number of historical links.
    pub fn arena_occupancy(&self) -> usize {
        self.arena.len()
    }

    /// Number of *live* tour nodes: one per vertex plus two per spanning
    /// edge.
    pub fn live_node_count(&self) -> usize {
        self.versions.len() + 2 * self.edge_nodes.len()
    }

    /// Number of retired tour nodes still waiting out an epoch grace period.
    pub fn arena_retired(&self) -> usize {
        self.arena.retired_len()
    }

    /// Number of recycled slots ready for reuse.
    pub fn arena_free(&self) -> usize {
        self.arena.free_len()
    }

    /// Caps (or uncaps) the node arena's bump growth — the test door for
    /// exercising the typed [`crate::arena::ArenaExhausted`] path through
    /// [`EulerForest::try_link`] without allocating millions of slots.
    pub fn set_node_limit(&self, limit: Option<u32>) {
        self.arena.set_node_limit(limit);
    }

    /// Attaches a chaos schedule to the node arena (see
    /// [`crate::arena::Arena::attach_chaos`]): [`EulerForest::try_link`]
    /// fails on its arena-allocation ordinals and epoch advances stall on
    /// its delay ordinals.
    pub fn attach_chaos(&self, schedule: std::sync::Arc<dc_faults::ChaosSchedule>) {
        self.arena.attach_chaos(schedule);
    }

    /// Pins the calling thread against the forest's reclamation domain: no
    /// node the thread can reach is recycled until the guard drops. The
    /// lock-free read operations pin internally; this is for tests and for
    /// callers composing multi-step lock-free traversals.
    #[inline]
    pub fn pin(&self) -> EpochGuard<'_> {
        self.arena.pin()
    }

    /// The forest's reclamation domain (observability: tests, diagnostics).
    pub fn epoch_domain(&self) -> &dc_sync::EpochDomain {
        self.arena.domain()
    }

    // ----- per-representative side tables ----------------------------------

    /// Vertex id of a complete-tour treap root (always a vertex node, by the
    /// priority-band invariant).
    #[inline]
    fn root_vertex(&self, r: NodeRef) -> u32 {
        self.node(r)
            .vertex()
            .expect("complete-tour treap roots are vertex nodes")
    }

    /// Reads the root version of representative `r` (paper Listing 1).
    ///
    /// Acquire, not SeqCst. The read protocol needs exactly three things
    /// from these loads (memory-ordering table in `DESIGN.md` §8):
    /// (a) per-word monotonicity — coherence gives it for free at any
    /// ordering; (b) the validation loads of a sandwich (hint fast path,
    /// Listing-1 double-check) must stay in program order — Acquire forbids
    /// hoisting a later load above an earlier one; (c) a reader whose
    /// validation *fails* must observe a fully published structure when it
    /// re-walks — reading the Release bump synchronizes-with the writer.
    /// No total order across different version words is required.
    #[inline]
    pub fn root_version(&self, r: NodeRef) -> u64 {
        self.version_of_vertex(self.root_vertex(r))
    }

    /// Reads a root version by the representative's vertex id (the hint
    /// validation path, which has no [`NodeRef`] in hand).
    #[inline]
    fn version_of_vertex(&self, root: u32) -> u64 {
        self.versions[root as usize].load(Ordering::Acquire)
    }

    /// Sets the busy bit on representative `r`'s version (writer only,
    /// before the operation's first reader-visible store on its component).
    ///
    /// Release, not SeqCst. The invariant readers rely on is *bump visible
    /// no later than the structural change*: the bump is sequenced before
    /// the operation's first Release parent-pointer store, so any reader
    /// that observed restructured pointers through an Acquire parent load
    /// also observes the bump — that holds even for a Relaxed bump.
    /// Release (rather than Relaxed) additionally publishes the writer's
    /// earlier bookkeeping to readers whose validation load observes the
    /// new version word directly, sparing them a fence before the re-walk.
    #[inline]
    fn begin_busy(&self, r: NodeRef) {
        let root = self.root_vertex(r);
        let version = self.versions[root as usize].fetch_add(1, Ordering::Release) + 1;
        debug_assert!(is_busy(version), "root {root} was already busy");
        // Setting the bit invalidates every outstanding hint on this root
        // (DESIGN.md §8); surface that as a counter + flight event. A forest
        // whose hint table was never built (every upper level, and a level 0
        // that has served no query) holds no hint to invalidate.
        if self.hints_materialized() {
            self.tally.add(Counter::HintInvalidations, 1);
            dc_obs::event(dc_obs::EventKind::HintInvalidation, root as u64, version);
        }
    }

    /// Clears the busy bit on `r`'s version with a second bump (writer only,
    /// after the operation's last reader-visible store that concerns `r`).
    /// Hints installed from here on validate again.
    #[inline]
    fn end_busy(&self, r: NodeRef) {
        let root = self.root_vertex(r);
        let prev = self.versions[root as usize].fetch_add(1, Ordering::Release);
        debug_assert!(is_busy(prev), "root {root} was not busy");
    }

    /// The per-component lock of representative `r` (level-0 only; the table
    /// materializes on first use so upper-level forests never pay for it).
    ///
    /// The lock lives in a per-*vertex* side table rather than inside the
    /// node: it is only ever taken on component representatives, which are
    /// always vertex nodes, so `n` lock words cover a forest of `2n + 2m`
    /// nodes.
    #[inline]
    pub fn root_lock(&self, r: NodeRef) -> &RawRwLock {
        let locks = self
            .locks
            .get_or_init(|| (0..self.versions.len()).map(|_| RawRwLock::new()).collect());
        &locks[self.root_vertex(r) as usize]
    }

    /// Shared access to a node. This is an advanced accessor used by the
    /// dynamic connectivity layer for per-component locks, subtree traversal
    /// and mark maintenance.
    #[inline]
    pub fn node(&self, r: NodeRef) -> &Node {
        self.arena.node(r)
    }

    /// The permanent tour node of vertex `v`.
    #[inline]
    pub fn vertex_node_ref(&self, v: u32) -> NodeRef {
        assert!(
            (v as usize) < self.versions.len(),
            "vertex {v} out of range"
        );
        NodeRef(v)
    }

    /// Returns `true` if the spanning edge `(u, v)` is currently in the
    /// forest.
    pub fn has_tree_edge(&self, u: u32, v: u32) -> bool {
        self.edge_nodes.contains_key(&norm(u, v))
    }

    // ----- lock-free read operations (Listing 1 + root hints) --------------

    /// The raw climb of paper Listing 1: follows parent links from `v`'s
    /// node to the current root and returns the root with its version.
    ///
    /// Safe to call concurrently with structural operations: the walk pins
    /// the reclamation domain, so no node it can reach is recycled under
    /// it. The pin covers only this one walk — the returned pair is plain
    /// data (the root is a vertex node, whose slot is never recycled), so
    /// callers may hold it across pins. Keeping pins walk-sized is what
    /// lets the epoch advance under sustained read pressure: a pin held
    /// across a whole retrying query would stall reclamation exactly when
    /// the structure churns hardest.
    fn find_root_walk(&self, v: u32) -> (NodeRef, u64) {
        let _guard = self.arena.pin();
        let mut cur = self.vertex_node_ref(v);
        loop {
            let parent = self.node(cur).parent();
            if parent.is_none() {
                break;
            }
            cur = parent;
        }
        (cur, self.root_version(cur))
    }

    /// The forest's hint cache, materialized on first consultation (first
    /// query against this forest) so never-queried forests — every HDT
    /// level above 0 — skip the O(n) table entirely.
    #[inline]
    fn hints(&self) -> &HintCache {
        self.hints.get_or_init(|| {
            let cache = HintCache::new(self.versions.len());
            cache.set_enabled(!self.hints_off.load(Ordering::Relaxed));
            cache
        })
    }

    /// Whether the hint fast path is active, *without* materializing the
    /// table: an unmaterialized cache reports what it would be built with,
    /// so hints-disabled forests stay table-free through any number of
    /// queries.
    #[inline]
    fn hints_enabled(&self) -> bool {
        match self.hints.get() {
            Some(hints) => hints.is_enabled(),
            None => !self.hints_off.load(Ordering::Relaxed),
        }
    }

    /// Validates a raw hint slot value: `Some((root_vertex,
    /// current_version))` iff the hinted root's version still matches the
    /// recorded snapshot. A hit proves the slot's vertex roots at
    /// `root_vertex` *right now* (at the validation load) — no pin, no
    /// traversal; see `DESIGN.md` §8. Takes the already-loaded raw value so
    /// callers read each slot exactly once.
    #[inline]
    fn validate_hint(&self, raw: u64) -> Option<(u32, u64)> {
        let (root, ver32) = HintCache::decode(raw)?;
        let cur = self.version_of_vertex(root);
        (cur as u32 == ver32 && !is_busy(cur)).then_some((root, cur))
    }

    /// Installs a validated claim unless it carries the busy bit: a claim
    /// taken mid-operation may be true now and false before the operation's
    /// closing bump, so it must never be served from the cache.
    #[inline]
    fn install_hint(&self, hints: &HintCache, v: u32, observed: u64, root: u32, version: u64) {
        if !is_busy(version) {
            hints.install(v, observed, root, version);
        }
    }

    /// Resolves `v`'s current root together with its version (paper
    /// Listing 1, `find_root`), short-circuited by a validated root hint
    /// when one is present. Goes through the same resolution path as
    /// `connected`, so its consultations count in the hit/miss statistics
    /// and a miss warms the hint slot on the way out; the returned pair is
    /// always a validated claim (simultaneously current at some instant).
    pub fn find_root(&self, v: u32) -> (NodeRef, u64) {
        let (root, version) = self.resolve_root_validated(v);
        (self.vertex_node_ref(root), version)
    }

    /// The current root node of `v`'s component (without the version),
    /// always resolved by a raw climb — never through the hint cache.
    ///
    /// The callers of this method are *protocol-critical* writer-side
    /// paths: per-component lock acquisition and the published-removal
    /// conflict handshake. Those must be exact, not probabilistic — the
    /// hint fast path carries the (astronomically improbable, but real)
    /// 32-bit version-wraparound caveat of `DESIGN.md` §8, which is an
    /// acceptable risk for one stale query answer but not for mutual
    /// exclusion. Keeping this walk-based confines the caveat strictly to
    /// the read side.
    pub fn find_root_node(&self, v: u32) -> NodeRef {
        self.find_root_walk(v).0
    }

    /// Linearizable, non-blocking connectivity check: the root-hint fast
    /// path over paper Listing 1.
    ///
    /// With hints enabled, each endpoint is resolved to a *validated*
    /// `(root, version)` claim independently — a hot endpoint costs one
    /// hint load plus one version load, and only a cold/stale endpoint
    /// pays a climb — and the two claims are then proved simultaneous with
    /// at most three more version loads (`DESIGN.md` §8). A query whose
    /// both endpoints are hot is therefore two hint loads plus two version
    /// loads, no tree traversal and no epoch pin at all. With hints
    /// disabled this is exactly the paper's climbing protocol.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        if self.hints_enabled() {
            self.connected_resolve(u, v)
        } else {
            self.connected_climb(u, v)
        }
    }

    /// The hint-backed protocol: two validated endpoint resolutions plus a
    /// version sandwich proving them simultaneous. A claim taken while its
    /// root was busy proves nothing about any other instant, so a query
    /// holding one falls back to the climbing protocol.
    fn connected_resolve(&self, u: u32, v: u32) -> bool {
        loop {
            let (ru, ver_u) = self.resolve_root_validated(u);
            let (rv, ver_v) = self.resolve_root_validated(v);
            if is_busy(ver_u) || is_busy(ver_v) {
                return self.connected_climb(u, v);
            }
            if ru == rv {
                // Same root: each claim proves `versions[ru] == ver` at its
                // own instant, so equal non-busy versions mean no operation
                // on the component ran between the two instants
                // (monotonicity) — both claims held at once, hence
                // connected. No extra load needed.
                if ver_u == ver_v {
                    return true;
                }
            } else {
                // Different roots: validate u, then v, then u again. If all
                // three loads match, both non-busy claims still held at the
                // instant of the middle load, where the answer linearizes.
                if self.version_of_vertex(ru) == ver_u
                    && self.version_of_vertex(rv) == ver_v
                    && self.version_of_vertex(ru) == ver_u
                {
                    return false;
                }
            }
            // A writer moved one of the components mid-query; re-resolve
            // (the stale side will miss its hint and re-climb).
        }
    }

    /// The climbing protocol of paper Listing 1, verbatim (the hints-off
    /// read path, and the reference the hint protocol is measured against).
    ///
    /// Each `find_root_walk` pins the reclamation domain independently; the
    /// comparisons below only involve the returned values, never a
    /// dereference of a node from an earlier walk.
    fn connected_climb(&self, u: u32, v: u32) -> bool {
        loop {
            let (u_root, u_version) = self.find_root_walk(u);
            let (v_root, v_version) = self.find_root_walk(v);
            // Has the component of `u` changed while we looked at `v`?
            if self.find_root_walk(u) != (u_root, u_version) {
                continue;
            }
            if u_root != v_root {
                // `u` and `v` are likely in different components; re-check
                // that both roots were snapshotted atomically.
                if self.find_root_walk(v) != (v_root, v_version) {
                    continue;
                }
                if self.find_root_walk(u) != (u_root, u_version) {
                    continue;
                }
            }
            return u_root == v_root;
        }
    }

    /// Resolves `v`'s component root as a *validated* `(root_vertex,
    /// version)` claim — the pair was simultaneously current at some
    /// instant — consulting the hint cache first and double-walking on a
    /// miss (installing the fresh hint on the way out, unless the root was
    /// busy). A returned claim whose version has bit 0 set was taken
    /// mid-operation; callers pairing claims must not trust it.
    ///
    /// This is the building block bulk query paths share: resolve each
    /// distinct endpoint once, then compare and revalidate per pair
    /// ([`EulerForest::connected_many_into`]).
    pub fn resolve_root_validated(&self, v: u32) -> (u32, u64) {
        // Bind the cache once (or not at all: a disabled cache is never
        // touched, so hints-off forests stay table-free). The slot is read
        // exactly once; the same value is validated here and handed to the
        // install CAS below, so a hint installed concurrently is never
        // clobbered by mistake.
        let hints = self.hints_enabled().then(|| self.hints());
        let observed = hints.map(|h| h.raw(v));
        if let Some(observed) = observed {
            if let Some((root, version)) = self.validate_hint(observed) {
                self.tally.add(Counter::HintHits, 1);
                return (root, version);
            }
            self.tally.add(Counter::HintMisses, 1);
        }
        loop {
            let (r, version) = self.find_root_walk(v);
            if self.find_root_walk(v) == (r, version) {
                let root = self.root_vertex(r);
                if let (Some(hints), Some(observed)) = (hints, observed) {
                    self.install_hint(hints, v, observed, root, version);
                }
                return (root, version);
            }
        }
    }

    /// Answers a run of connectivity queries, resolving each *distinct*
    /// endpoint's root at most once and reusing it across the run: repeated
    /// roots validate with a couple of version loads per pair instead of
    /// re-climbing, even when the hint cache is cold or disabled. Answers
    /// are appended to `out` in pair order; each answer is individually
    /// linearizable (stale memo entries are revalidated per pair and
    /// refreshed on failure, exactly like hint misses).
    ///
    /// The run goes through the interleaved, software-prefetched read
    /// engine (see [`EulerForest::connected_many_with`]) with a per-thread
    /// [`ReadScratch`], so steady-state calls allocate nothing beyond
    /// `out`'s own growth.
    pub fn connected_many_into(&self, pairs: &[(u32, u32)], out: &mut Vec<bool>) {
        let mut scratch = READ_SCRATCH.with(|s| s.take());
        self.connected_many_with(pairs, &mut scratch, out);
        READ_SCRATCH.with(|s| s.set(scratch));
    }

    // ----- the interleaved, prefetched bulk read engine ---------------------

    /// The memory-level-parallelism bulk read path (`DESIGN.md` §10): a
    /// sorted endpoint memo whose entries are validated `(root, version)`
    /// claims, with endpoint resolution structured so independent cache
    /// misses overlap instead of serializing:
    ///
    /// 1. **Batched hint validation.** Hint-slot lines are prefetched a
    ///    batch ahead of the loads that consume them, and each decoded
    ///    root's version word is prefetched as soon as the raw hint word is
    ///    in hand — by the time the validation load executes, the line is
    ///    (probabilistically) already in flight.
    /// 2. **Interleaved climbing.** Endpoints whose hint missed are climbed
    ///    in groups of up to `width` software-pipelined walks: each
    ///    in-flight walk advances one parent hop per turn and prefetches
    ///    its next node before the turn passes on, so up to `width` DRAM
    ///    misses are outstanding at once instead of one.
    /// 3. The per-pair version-sandwich validation of `connected_resolve`;
    ///    a pair holding a busy claim is answered by the climbing protocol.
    ///
    /// Prefetching never changes what is *read*, so the Listing-1 /
    /// root-hint safety arguments apply unchanged (`DESIGN.md` §10).
    /// Explicit-scratch variant of [`EulerForest::connected_many_into`];
    /// with a warmed `scratch` the call is allocation-free.
    pub fn connected_many_with(
        &self,
        pairs: &[(u32, u32)],
        scratch: &mut ReadScratch,
        out: &mut Vec<bool>,
    ) {
        out.reserve(pairs.len());
        // Tiny runs: the memo costs more than it saves.
        if pairs.len() < 4 {
            for &(u, v) in pairs {
                out.push(u == v || self.connected(u, v));
            }
            return;
        }
        scratch.endpoints.clear();
        scratch.endpoints.reserve(pairs.len() * 2);
        for &(u, v) in pairs {
            scratch.endpoints.push(u);
            scratch.endpoints.push(v);
        }
        scratch.endpoints.sort_unstable();
        scratch.endpoints.dedup();
        let n = scratch.endpoints.len();
        scratch.memo.clear();
        scratch.memo.resize(n, (0, 0));
        scratch.pending.clear();

        let hints = self.hints_enabled().then(|| self.hints());
        match hints {
            Some(cache) => self.validate_hints_batched(cache, scratch),
            None => scratch.pending.extend(0..n as u32),
        }
        self.climb_pending_interleaved(scratch, hints);

        let ReadScratch {
            endpoints, memo, ..
        } = scratch;
        let index = |x: u32| {
            endpoints
                .binary_search(&x)
                .expect("endpoint collected above")
        };
        for &(u, v) in pairs {
            if u == v {
                out.push(true);
                continue;
            }
            let (iu, iv) = (index(u), index(v));
            loop {
                let (ru, ver_u) = memo[iu];
                let (rv, ver_v) = memo[iv];
                if is_busy(ver_u) || is_busy(ver_v) {
                    out.push(self.connected_climb(u, v));
                    break;
                }
                // The same sandwich as `connected_resolve`, against the
                // full 64-bit versions the memo carries.
                let valid = if ru == rv {
                    ver_u == ver_v
                } else {
                    self.version_of_vertex(ru) == ver_u
                        && self.version_of_vertex(rv) == ver_v
                        && self.version_of_vertex(ru) == ver_u
                };
                if valid {
                    out.push(ru == rv);
                    break;
                }
                memo[iu] = self.resolve_root_validated(u);
                memo[iv] = self.resolve_root_validated(v);
            }
        }
    }

    /// Stage 1 of the interleaved engine: validates every endpoint's hint
    /// with slot lines prefetched `HINT_PREFETCH_BATCH` endpoints ahead and
    /// version lines prefetched as soon as each raw word decodes. Hits land
    /// in `scratch.memo`; misses join `scratch.pending` for the climb
    /// stage. Counters are recorded in bulk (one atomic add per outcome for
    /// the whole run).
    fn validate_hints_batched(&self, cache: &HintCache, scratch: &mut ReadScratch) {
        let n = scratch.endpoints.len();
        scratch.raws.clear();
        scratch.raws.resize(n, 0);
        for &e in &scratch.endpoints[..n.min(HINT_PREFETCH_BATCH)] {
            cache.prefetch_slot(e);
        }
        for i in 0..n {
            if let Some(&ahead) = scratch.endpoints.get(i + HINT_PREFETCH_BATCH) {
                cache.prefetch_slot(ahead);
            }
            let raw = cache.raw(scratch.endpoints[i]);
            scratch.raws[i] = raw;
            if let Some((root, _)) = HintCache::decode(raw) {
                self.prefetch_version(root);
            }
        }
        let mut hits = 0u64;
        for i in 0..n {
            match self.validate_hint(scratch.raws[i]) {
                Some(claim) => {
                    scratch.memo[i] = claim;
                    hits += 1;
                }
                None => scratch.pending.push(i as u32),
            }
        }
        self.tally.add(Counter::HintHits, hits);
        self.tally
            .add(Counter::HintMisses, scratch.pending.len() as u64);
    }

    /// Stage 2 of the interleaved engine: resolves every pending endpoint by
    /// the double-walk protocol, `width` walks in flight at a time.
    ///
    /// Each group of up to `width` climbs shares one epoch pin — pins grow
    /// from walk-sized to group-sized, still bounded (`DESIGN.md` §10) —
    /// and every in-flight walk advances one parent hop per turn, issuing a
    /// prefetch for the hop after before yielding the turn. A walk that
    /// reaches a root records `(root, version)`; the claim validates when
    /// the *next* completed walk of the same climb reproduces it exactly
    /// (precisely the Listing-1 double-walk condition — by version
    /// monotonicity the word was constant between the two walk ends, so
    /// the second walk ran against an unchanged component). A climb that
    /// keeps failing validation under churn is bailed out at
    /// `INTERLEAVE_RETRY_CAP` restarts and finished by the scalar retry
    /// loop *after* the group's pin drops, so churn cannot stretch the pin
    /// unboundedly.
    fn climb_pending_interleaved(&self, scratch: &mut ReadScratch, hints: Option<&HintCache>) {
        if scratch.pending.is_empty() {
            return;
        }
        let width = self.interleave_width();
        let ReadScratch {
            endpoints,
            memo,
            raws,
            pending,
        } = scratch;
        let mut bailed = [0u32; MAX_INTERLEAVE_WIDTH];
        for group in pending.chunks(width) {
            let _span = dc_obs::span(dc_obs::SpanId::InterleavedClimbGroup);
            let mut states = [Climb {
                slot: 0,
                start: NodeRef::NONE,
                cur: NodeRef::NONE,
                first: None,
                retries: 0,
            }; MAX_INTERLEAVE_WIDTH];
            let mut bail_count = 0usize;
            {
                let _guard = self.arena.pin();
                for (state, &slot) in states.iter_mut().zip(group.iter()) {
                    let start = self.vertex_node_ref(endpoints[slot as usize]);
                    *state = Climb {
                        slot,
                        start,
                        cur: start,
                        first: None,
                        retries: 0,
                    };
                    self.prefetch_node(start);
                }
                // `states[..active]` are in flight; finished/bailed climbs
                // swap to the back. Round-robin one hop per live climb.
                let mut active = group.len();
                let mut i = 0;
                while active > 0 {
                    if i >= active {
                        i = 0;
                    }
                    let state = &mut states[i];
                    let parent = self.node(state.cur).parent();
                    if parent.is_some() {
                        state.cur = parent;
                        self.prefetch_node(parent);
                        i += 1;
                        continue;
                    }
                    // Walk complete: `cur` is a root right now.
                    let claim = (state.cur, self.root_version(state.cur));
                    let mut retire = false;
                    match state.first {
                        Some(first) if first == claim => {
                            // Two consecutive walks agree: validated.
                            let root = self.root_vertex(claim.0);
                            memo[state.slot as usize] = (root, claim.1);
                            if let Some(cache) = hints {
                                self.install_hint(
                                    cache,
                                    endpoints[state.slot as usize],
                                    raws[state.slot as usize],
                                    root,
                                    claim.1,
                                );
                            }
                            retire = true;
                        }
                        Some(_) => {
                            // A writer moved the component between walks;
                            // this walk becomes the new first of the pair.
                            state.retries += 1;
                            if state.retries >= INTERLEAVE_RETRY_CAP {
                                bailed[bail_count] = state.slot;
                                bail_count += 1;
                                retire = true;
                            } else {
                                state.first = Some(claim);
                                state.cur = state.start;
                            }
                        }
                        None => {
                            state.first = Some(claim);
                            state.cur = state.start;
                        }
                    }
                    if retire {
                        states.swap(i, active - 1);
                        active -= 1;
                    } else {
                        i += 1;
                    }
                }
            }
            // Pin dropped: finish churn-bailed climbs with the scalar
            // protocol (re-pins per walk, retries unboundedly like
            // `connected` itself — the group above just refuses to hold
            // *its* pin that long).
            for &slot in &bailed[..bail_count] {
                memo[slot as usize] = self.resolve_root_validated(endpoints[slot as usize]);
            }
        }
    }

    /// Hints the CPU to pull `r`'s node into cache (no-op for `NONE`).
    /// Node addresses are stable for the arena's lifetime, so computing one
    /// is safe whether or not the node is still live — and a prefetch never
    /// reads architecturally (see `dc_sync::prefetch`).
    #[inline]
    fn prefetch_node(&self, r: NodeRef) {
        if r.is_some() {
            dc_sync::prefetch_read(self.node(r) as *const Node);
        }
    }

    /// Hints the CPU to pull `root`'s version word into cache.
    #[inline]
    fn prefetch_version(&self, root: u32) {
        if let Some(word) = self.versions.get(root as usize) {
            dc_sync::prefetch_read(word as *const AtomicU64);
        }
    }

    /// Sets the interleaved engine's in-flight climb count, clamped to
    /// `1..=MAX_INTERLEAVE_WIDTH` (width 1 degenerates to sequential climbs
    /// with next-hop prefetch — a bench cell, not a useful production
    /// setting).
    pub fn set_interleave_width(&self, width: usize) {
        let clamped = width.clamp(1, MAX_INTERLEAVE_WIDTH) as u8;
        self.interleave_width.store(clamped, Ordering::Relaxed);
    }

    /// The interleaved engine's in-flight climb count.
    pub fn interleave_width(&self) -> usize {
        self.interleave_width.load(Ordering::Relaxed) as usize
    }

    // ----- hint-cache observability ----------------------------------------

    /// Read-path hint counters: `(hits, misses)`, counted per *endpoint
    /// resolution*. A hit resolved an endpoint's root purely from a
    /// validated hint; a miss fell back to the double-walk climb (and
    /// reinstalled the hint). A two-endpoint query contributes two counts.
    /// Read from [`EulerForest::tally`].
    pub fn read_hint_stats(&self) -> (u64, u64) {
        (
            self.tally.get(Counter::HintHits),
            self.tally.get(Counter::HintMisses),
        )
    }

    /// The tally this forest counts its hint events into.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Enables or disables the root-hint fast path on this forest (both
    /// settings are correct; hints are strictly an accelerator).
    ///
    /// Allocation-free on a never-queried forest: the request is recorded
    /// and applied when (if ever) the table materializes. Racing this with
    /// a concurrent first query can leave the cache on the old setting —
    /// harmless, since correctness never depends on the flag — so callers
    /// wanting a deterministic state set it before publishing the forest
    /// to readers (what the benches do).
    pub fn set_read_hints(&self, enabled: bool) {
        self.hints_off.store(!enabled, Ordering::Relaxed);
        if let Some(hints) = self.hints.get() {
            hints.set_enabled(enabled);
        }
    }

    /// Whether the root-hint fast path is enabled on this forest.
    pub fn read_hints_enabled(&self) -> bool {
        self.hints_enabled()
    }

    /// Whether this forest's hint table has been materialized (it happens
    /// on the first query; never-queried forests — HDT levels above 0 —
    /// stay table-free). Diagnostics and tests.
    pub fn hints_materialized(&self) -> bool {
        self.hints.get().is_some()
    }

    /// Diagnostics/tests: does `v` currently hold a hint that validates?
    pub fn hint_valid(&self, v: u32) -> bool {
        match self.hints.get().map(|h| HintCache::decode(h.raw(v))) {
            Some(Some((root, ver32))) => self.version_of_vertex(root) as u32 == ver32,
            _ => false,
        }
    }

    /// Whether `r` is still a reader-visible component representative (the
    /// lock-acquisition recheck: lock first, then confirm the component did
    /// not move).
    #[inline]
    pub fn is_current_root(&self, r: NodeRef) -> bool {
        self.node(r).parent().is_none()
    }

    /// Root comparison for callers that already hold the locks covering both
    /// components (no retry protocol needed).
    pub fn same_tree_locked(&self, u: u32, v: u32) -> bool {
        self.writer_root(self.vertex_node_ref(u)) == self.writer_root(self.vertex_node_ref(v))
    }

    /// Writer-side component representative of vertex `v` (follows exact
    /// parent pointers, valid only under the component's lock).
    pub fn component_root(&self, v: u32) -> NodeRef {
        self.writer_root(self.vertex_node_ref(v))
    }

    /// Number of vertices in the tree rooted at `root`.
    pub fn tree_size(&self, root: NodeRef) -> u32 {
        self.node(root).size()
    }

    /// Number of vertices in the component containing `v` (writer-side).
    pub fn component_size(&self, v: u32) -> u32 {
        self.tree_size(self.component_root(v))
    }

    // ----- structural operations (single writer per component) -------------

    fn init_edge_node(&self, r: NodeRef, from: u32, to: u32, initial_parent: NodeRef) -> NodeRef {
        let node = self.arena.node(r);
        node.set_endpoints(from, to);
        // Edge nodes live in the lower priority band: they can never become a
        // component's treap root, so the common root of a merge is always the
        // pre-determined higher-priority old root (see `crate::node`).
        node.set_priority(self.next_priority());
        node.set_size(0);
        node.set_left(NodeRef::NONE);
        node.set_right(NodeRef::NONE);
        node.set_is_root(true);
        // Never expose a second sink: before the node is attached anywhere it
        // already points at the component representative.
        node.set_parent(initial_parent);
        r
    }

    /// Adds the spanning edge `(u, v)`, merging the two Euler tours.
    ///
    /// # Contract
    /// `u` and `v` must currently be in different trees, and the caller must
    /// hold whatever synchronization makes it the unique writer for both
    /// components.
    pub fn link(&self, u: u32, v: u32) {
        let e_a = self.arena.alloc();
        let e_b = self.arena.alloc();
        self.link_with_nodes(u, v, e_a, e_b);
    }

    /// Fallible [`EulerForest::link`]: the two tour edge nodes are reserved
    /// through [`crate::arena::Arena::try_alloc`] **before** any version
    /// bump or structural change, so arena exhaustion (real or
    /// chaos-injected) comes back as `Err(ArenaExhausted)` with the forest
    /// bit-for-bit untouched — the caller degrades the insert to a rejected
    /// operation instead of aborting (`DESIGN.md` §13).
    pub fn try_link(&self, u: u32, v: u32) -> Result<(), ArenaExhausted> {
        let (e_a, e_b) = self.try_reserve_edge_nodes()?;
        self.link_with_nodes(u, v, e_a, e_b);
        Ok(())
    }

    /// Reserves the two tour edge nodes one spanning edge needs, through
    /// [`crate::arena::Arena::try_alloc`] — the allocation half of
    /// [`EulerForest::try_link`], with the same sequence of arena calls. On
    /// failure nothing stays reserved.
    pub fn try_reserve_edge_nodes(&self) -> Result<(NodeRef, NodeRef), ArenaExhausted> {
        let e_a = self.arena.try_alloc()?;
        match self.arena.try_alloc() {
            Ok(e_b) => Ok((e_a, e_b)),
            Err(err) => {
                // Never published: straight back to the free list.
                self.arena.release_unpublished(e_a);
                Err(err)
            }
        }
    }

    /// The link body, with the two tour edge nodes already reserved
    /// (uninitialized) by the caller.
    fn link_with_nodes(&self, u: u32, v: u32, e_a: NodeRef, e_b: NodeRef) {
        debug_assert!(u != v, "self-loops cannot be spanning edges");
        let ru = self.component_root(u);
        let rv = self.component_root(v);
        assert_ne!(ru, rv, "link({u}, {v}): endpoints already in the same tree");

        // Mark both representatives busy before any structural change
        // (readers use the versions to detect racing modifications, and no
        // claim taken from here on is ever served from the hint cache).
        self.begin_busy(ru);
        self.begin_busy(rv);

        // The common root after the merge is the higher-priority old root.
        let (hi, lo) = if self.prio_key(ru) > self.prio_key(rv) {
            (ru, rv)
        } else {
            (rv, ru)
        };

        // Logical merge — the linearization point of the edge addition: from
        // here on every node of both trees reaches `hi`.
        self.node(lo).set_parent(hi);

        // `lo` stops being a representative at the store above, its last
        // store, so clear its busy bit. No claim naming `lo` can validate
        // from here on, although no later operation moves `lo`'s version
        // (they touch `hi`): claims taken before the first bump died at it,
        // and claims taken inside the busy window carry the bit and were
        // never installed (`DESIGN.md` §8; caught by
        // `root_hints::hint_claims_never_straddle_a_link_or_cut`).
        self.end_busy(lo);

        // Physical merge: rotate both tours to start at the edge endpoints
        // and concatenate them with the two new Euler-tour edge nodes.
        let tu = self.reroot(u);
        let tv = self.reroot(v);
        let e_uv = self.init_edge_node(e_a, u, v, hi);
        let e_vu = self.init_edge_node(e_b, v, u, hi);
        let (key_u, _key_v) = (norm(u, v).0, norm(u, v).1);
        let stored = if key_u == u {
            (e_uv, e_vu)
        } else {
            (e_vu, e_uv)
        };
        let prev = self.edge_nodes.insert(norm(u, v), stored);
        debug_assert!(prev.is_none(), "duplicate spanning edge ({u}, {v})");

        let t = self.merge_roots(tu, e_uv);
        let t = self.merge_roots(t, tv);
        let t = self.merge_roots(t, e_vu);
        debug_assert_eq!(
            t, hi,
            "merged tour root must be the higher-priority old root"
        );
        self.end_busy(hi);
    }

    /// Physically splits the tour of spanning edge `(u, v)` into the two
    /// would-be trees without logically disconnecting them.
    ///
    /// # Contract
    /// `(u, v)` must be a spanning edge and the caller must be the unique
    /// writer for its component.
    pub fn prepare_cut(&self, u: u32, v: u32) -> PreparedCut {
        let key = norm(u, v);
        let (fwd, bwd) = self
            .edge_nodes
            .remove(&key)
            .unwrap_or_else(|| panic!("cut({u}, {v}): not a spanning edge"));
        let old_root = self.writer_root(fwd);
        // Readers keep seeing one component rooted at `old_root` throughout
        // the physical split, but they may walk through its intermediate
        // states: the split runs inside a busy window.
        self.begin_busy(old_root);

        // Split the tour around the two directed edge nodes. `fwd` is the
        // min->max node; it may appear before or after `bwd` in the tour.
        let (prefix, from_fwd) = self.split_before(fwd);
        let bwd_in_prefix = prefix.is_some() && self.piece_of(bwd, prefix, from_fwd) == prefix;

        let (t_outer, t_inner) = if bwd_in_prefix {
            // Tour = [A, bwd, M, fwd, C]: the subtree segment M lies between
            // `bwd` and `fwd`.
            let (_fwd_single, c) = self.split_after(fwd);
            let (a, _from_bwd) = self.split_before(bwd);
            let (_bwd_single, m) = self.split_after(bwd);
            debug_assert_eq!(_fwd_single, fwd);
            debug_assert_eq!(_bwd_single, bwd);
            (self.merge_roots(a, c), m)
        } else {
            // Tour = [A, fwd, M, bwd, C].
            let (_fwd_single, rest) = self.split_after(fwd);
            debug_assert_eq!(_fwd_single, fwd);
            let (m, _from_bwd) = self.split_before(bwd);
            let (_bwd_single, c) = self.split_after(bwd);
            debug_assert_eq!(_bwd_single, bwd);
            let _ = rest;
            (self.merge_roots(prefix, c), m)
        };

        debug_assert!(t_outer.is_some() && t_inner.is_some());
        let (retained_root, detached_root) = if t_outer == old_root {
            (t_outer, t_inner)
        } else {
            debug_assert_eq!(t_inner, old_root);
            (t_inner, t_outer)
        };
        self.end_busy(old_root);
        PreparedCut {
            retained_root,
            detached_root,
            retained_size: self.node(retained_root).size(),
            detached_size: self.node(detached_root).size(),
            edge_nodes: (fwd, bwd),
        }
    }

    /// Logically applies a prepared cut: after this single store, readers
    /// observe two components. This is the linearization point of a spanning
    /// edge removal without replacement.
    ///
    /// Also retires the cut's two tour edge nodes: after the detached root's
    /// parent is cleared, no reachable parent pointer references them any
    /// more, so they only need to outlive the readers pinned right now.
    pub fn commit_cut(&self, cut: &PreparedCut) {
        // Both roots go busy before the split store and leave it after:
        // claims taken in the prepared window on the retained root ("v roots
        // at retained_root", true while the pieces were one component) die
        // at the first bump, and claims taken across the store carry the
        // busy bit, so no pair of them can straddle the split (`DESIGN.md`
        // §8; pinned by `crates/ett/tests/root_hints.rs`). The detached
        // root's bumps also give it a fresh version, so readers racing with
        // the very next modification of the new component detect it.
        self.begin_busy(cut.retained_root);
        self.begin_busy(cut.detached_root);
        self.node(cut.detached_root).set_parent(NodeRef::NONE);
        self.end_busy(cut.detached_root);
        self.end_busy(cut.retained_root);
        self.retire_cut_nodes(cut);
    }

    /// Retires a prepared cut's two tour edge nodes without committing the
    /// cut — the replacement-found path, where the two pieces have just been
    /// relinked by [`EulerForest::link`] (which overwrote the last stale
    /// parent pointer that could lead to them).
    ///
    /// Every [`PreparedCut`] must be finished with exactly one of
    /// [`EulerForest::commit_cut`] or this.
    pub fn retire_cut_nodes(&self, cut: &PreparedCut) {
        let (fwd, bwd) = cut.edge_nodes;
        self.arena.retire_pair(fwd, bwd);
    }

    /// Removes the spanning edge `(u, v)` and splits the tree
    /// (`prepare_cut` + `commit_cut`). Returns the prepared-cut description.
    pub fn cut(&self, u: u32, v: u32) -> PreparedCut {
        let cut = self.prepare_cut(u, v);
        self.commit_cut(&cut);
        cut
    }

    // ----- bulk construction ------------------------------------------------

    /// Links a whole forest of spanning edges at once, in time linear in
    /// the vertex count plus `edges.len()` instead of one reroot and three
    /// merges per edge (`DESIGN.md` §2, "Bulk construction").
    ///
    /// Each tree's Euler tour is emitted by an iterative DFS —
    /// `r, (r→c), tour(c), (c→r), …` — and turned into its treap by the
    /// stack-based Cartesian-tree construction over the existing banded
    /// priorities (vertex nodes keep theirs, edge nodes draw fresh ones).
    /// Sizes, `is_root` flags and aggregate marks (self-marks OR the
    /// children's aggregates) are set as each node's subtree completes.
    ///
    /// `reserved[i]`, where present, holds the two tour nodes of `edges[i]`
    /// (from [`EulerForest::try_reserve_edge_nodes`]); the edges past the
    /// end of `reserved` get fresh nodes. The tour-edge registry is filled
    /// in `edges` order, as that many `link` calls would.
    ///
    /// Concurrent lock-free readers are safe: every vertex of a tree goes
    /// busy before the tree's first parent store, every edge node points at
    /// the tree's final root before any parent store names it, and every
    /// parent store points at a strictly higher-priority node — so
    /// components only ever merge, within one final tree, until the closing
    /// bumps.
    ///
    /// # Contract
    /// Every endpoint is currently a singleton tree, the edges form a
    /// forest (no cycle, duplicate or self-loop — violations panic), and the
    /// caller is the unique writer of the whole forest.
    pub fn build_trees(&self, edges: &[(u32, u32)], reserved: Vec<(NodeRef, NodeRef)>) {
        assert!(
            reserved.len() <= edges.len(),
            "more reserved pairs than edges"
        );
        const END: u32 = u32::MAX;
        // Per-vertex lists of half-edges: half-edge `2i` leaves `edges[i].0`
        // and `2i + 1` leaves `edges[i].1`; `head` starts each vertex's list
        // and `next` chains it.
        let mut head = vec![END; self.versions.len()];
        let mut next = vec![END; 2 * edges.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            for (half, from) in [(2 * i, u), (2 * i + 1, v)] {
                next[half] = head[from as usize];
                head[from as usize] = half as u32;
            }
        }

        // Tour edge nodes, registry order: (min->max, max->min). Unreserved
        // pairs are allocated as the DFS first crosses their edge, so the
        // arena lays them out in tour order.
        let mut nodes = reserved;
        nodes.resize(edges.len(), (NodeRef::NONE, NodeRef::NONE));
        let mut visited = vec![false; self.versions.len()];
        let mut tour: Vec<NodeRef> = Vec::new();
        let mut spine: Vec<NodeRef> = Vec::new();
        // DFS frames: (vertex, edge it was entered by, next half-edge).
        let mut dfs: Vec<(u32, u32, u32)> = Vec::new();
        for &(start, _) in edges {
            if visited[start as usize] {
                continue;
            }
            tour.clear();
            visited[start as usize] = true;
            tour.push(self.singleton_node(start));
            dfs.push((start, END, head[start as usize]));
            while let Some(frame) = dfs.last_mut() {
                let (v, via, half) = *frame;
                if half != END {
                    frame.2 = next[half as usize];
                    let i = half / 2;
                    if i == via {
                        continue;
                    }
                    let (a, b) = edges[i as usize];
                    let c = if half % 2 == 0 { b } else { a };
                    assert!(
                        !visited[c as usize],
                        "build_trees: the edges close a cycle at vertex {c}"
                    );
                    visited[c as usize] = true;
                    let pair = &mut nodes[i as usize];
                    if pair.0.is_none() {
                        *pair = (self.arena.alloc(), self.arena.alloc());
                    }
                    let (lo, hi) = norm(v, c);
                    for (r, from, to) in [(pair.0, lo, hi), (pair.1, hi, lo)] {
                        let node = self.node(r);
                        node.set_endpoints(from, to);
                        node.set_priority(self.next_priority());
                    }
                    tour.push(if v < c { pair.0 } else { pair.1 });
                    tour.push(self.singleton_node(c));
                    dfs.push((c, i, head[c as usize]));
                } else {
                    dfs.pop();
                    if let Some(&(parent, _, _)) = dfs.last() {
                        let (fwd, bwd) = nodes[via as usize];
                        tour.push(if v < parent { fwd } else { bwd });
                    }
                }
            }
            self.build_tour_treap(&tour, &mut spine);
        }

        for (&(u, v), &pair) in edges.iter().zip(&nodes) {
            let prev = self.edge_nodes.insert(norm(u, v), pair);
            debug_assert!(prev.is_none(), "duplicate spanning edge ({u}, {v})");
        }
    }

    /// Vertex `v`'s node, asserting it is still a singleton tree (the
    /// [`EulerForest::build_trees`] precondition).
    fn singleton_node(&self, v: u32) -> NodeRef {
        let r = self.vertex_node_ref(v);
        let node = self.node(r);
        assert!(
            node.is_root() && node.size() == 1 && node.parent().is_none(),
            "build_trees: vertex {v} is not a singleton tree"
        );
        r
    }

    /// Turns one tree's Euler tour into its treap (the stack-based
    /// Cartesian-tree construction) and publishes it to readers; see
    /// [`EulerForest::build_trees`] for why every intermediate state is
    /// safe. `spine` is scratch.
    fn build_tour_treap(&self, tour: &[NodeRef], spine: &mut Vec<NodeRef>) {
        // Vertex nodes outrank every edge node, so the highest-priority
        // node — the final root — is a vertex node.
        let root = *tour
            .iter()
            .max_by_key(|&&r| self.prio_key(r))
            .expect("a tour holds at least its start vertex");
        let vertices = || {
            tour.iter()
                .copied()
                .filter(|&r| !self.node(r).is_edge_node())
        };
        for r in vertices() {
            self.begin_busy(r);
        }
        spine.clear();
        for &x in tour {
            let node = self.node(x);
            if node.is_edge_node() {
                // No second sink: named by a parent store only once its
                // subtree completes below, it points at the final root
                // from the start (as in `link`).
                node.set_parent(root);
            }
            let mut last = NodeRef::NONE;
            while let Some(&top) = spine.last() {
                if self.prio_key(top) > self.prio_key(x) {
                    break;
                }
                spine.pop();
                self.finish_built_node(top);
                last = top;
            }
            node.set_left(last);
            if let Some(&top) = spine.last() {
                self.node(top).set_right(x);
            }
            spine.push(x);
        }
        while let Some(top) = spine.pop() {
            self.finish_built_node(top);
        }
        debug_assert!(self.node(root).is_root() && self.node(root).parent().is_none());
        for r in vertices() {
            self.end_busy(r);
        }
    }

    /// Completes a node whose subtree is final: its size and aggregate
    /// marks from its children, and the children's parent stores (each to
    /// this strictly higher-priority node).
    fn finish_built_node(&self, r: NodeRef) {
        let node = self.node(r);
        let mut size = u32::from(!node.is_edge_node());
        let mut marks = node.self_mark_bits_as_agg();
        for child in [node.left(), node.right()] {
            if child.is_some() {
                let c = self.node(child);
                size += c.size();
                marks |= c.agg_mark_bits();
                if c.is_root() {
                    c.set_is_root(false);
                }
                c.set_parent(r);
            }
        }
        node.set_size(size);
        node.raise_agg_mark_bits(marks);
    }

    // ----- subtree marks (non-spanning / spanning edge summaries) ----------

    /// Sets the self-contribution of `mark` on vertex `v`'s node.
    pub fn set_vertex_self_mark(&self, v: u32, mark: Mark, value: bool) {
        self.node(self.vertex_node_ref(v))
            .set_self_mark(mark, value);
    }

    /// Reads the self-contribution of `mark` on vertex `v`'s node.
    pub fn vertex_self_mark(&self, v: u32, mark: Mark) -> bool {
        self.node(self.vertex_node_ref(v)).self_mark(mark)
    }

    /// Marks vertex `v` as having adjacent edges of kind `mark` and raises
    /// the aggregate flag on every node from `v` up to the current root
    /// (paper Listing 6, `set_flags_up`). Lock-free: may race with
    /// restructuring; the conservative direction (extra `true`s) is always
    /// safe and `recalculate_mark` repairs them under the lock.
    pub fn mark_path_upward(&self, v: u32, mark: Mark) {
        // The walk may cross stale parent pointers onto retired nodes
        // (conservative extra `true`s are harmless there); the pin keeps
        // those slots from being recycled mid-walk.
        let _guard = self.arena.pin();
        let start = self.vertex_node_ref(v);
        self.node(start).set_self_mark(mark, true);
        let mut cur = start;
        loop {
            let node = self.node(cur);
            node.set_agg_mark(mark, true);
            let parent = node.parent();
            if parent.is_none() {
                break;
            }
            cur = parent;
        }
    }

    /// [`EulerForest::mark_path_upward`] for a vertex that is still a
    /// singleton tree: its node is the whole tree, so the self-contribution
    /// and the aggregate are raised with no walk and no pin. The bulk
    /// builder's pre-pass; [`EulerForest::build_trees`] later folds the
    /// marks into the aggregates it builds.
    pub fn mark_singleton(&self, v: u32, mark: Mark) {
        let node = self.node(self.vertex_node_ref(v));
        debug_assert!(
            node.parent().is_none() && node.size() == 1,
            "vertex {v} is not a singleton tree"
        );
        node.set_self_mark(mark, true);
        node.set_agg_mark(mark, true);
    }

    fn should_have_mark(&self, r: NodeRef, mark: Mark) -> bool {
        let node = self.node(r);
        if node.self_mark(mark) {
            return true;
        }
        [node.left(), node.right()]
            .into_iter()
            .any(|c| c.is_some() && self.node(c).agg_mark(mark))
    }

    /// Recomputes the aggregate flag of `r` from its self-mark and children,
    /// with the re-check of paper Listing 6 / Lemma C.1 so a racing lock-free
    /// insertion is never lost. Must be called under the component's lock.
    pub fn recalculate_mark(&self, r: NodeRef, mark: Mark) {
        let should = self.should_have_mark(r, mark);
        self.node(r).set_agg_mark(mark, should);
        if !should && self.should_have_mark(r, mark) {
            // A concurrent insertion slipped in between the computation and
            // the store; restore the conservative value.
            self.node(r).set_agg_mark(mark, true);
        }
    }

    /// Reads the aggregate flag of `r`.
    pub fn subtree_has_mark(&self, r: NodeRef, mark: Mark) -> bool {
        self.node(r).agg_mark(mark)
    }

    /// Visits the vertices of the tree rooted at `root` whose subtree
    /// carries `mark` (paper Listing 6): subtrees whose aggregate flag is
    /// clear are skipped entirely, so `f` sees every self-marked vertex and
    /// possibly some unmarked ones (callers treat a visit as "look at this
    /// vertex's slots", harmless when empty). Every visited node's aggregate
    /// is recomputed post-order with the Lemma C.1 re-check.
    /// `ControlFlow::Break` aborts the walk at once and leaves the pending
    /// ancestors' aggregates untouched — conservatively raised, the safe
    /// direction. Writer-side: the caller must be the unique writer of
    /// `root`'s tree.
    pub fn visit_marked_vertices(
        &self,
        root: NodeRef,
        mark: Mark,
        mut f: impl FnMut(u32) -> ControlFlow<()>,
    ) {
        let mut stack = WALK_STACK.with(|s| s.take());
        stack.clear();
        stack.push((root, false));
        while let Some((r, children_done)) = stack.pop() {
            if children_done {
                // Post-order repair: both children now carry exact flags.
                self.recalculate_mark(r, mark);
                continue;
            }
            if !self.subtree_has_mark(r, mark) {
                continue;
            }
            if let Some(vertex) = self.node(r).vertex() {
                if f(vertex).is_break() {
                    break;
                }
            }
            stack.push((r, true));
            let node = self.node(r);
            for child in [node.left(), node.right()] {
                if child.is_some() {
                    stack.push((child, false));
                }
            }
        }
        stack.clear();
        WALK_STACK.with(|s| s.set(stack));
    }

    // ----- traversal & validation helpers -----------------------------------

    /// Collects the vertices of the tree rooted at `root` in tour order
    /// (writer-side; used by tests and by level promotions).
    pub fn tree_vertices(&self, root: NodeRef) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_order(root, &mut |r| {
            if let Some(v) = self.node(r).vertex() {
                out.push(v);
            }
        });
        out
    }

    /// Visits every spanning edge currently in the forest, normalized
    /// (`u < v`), exactly once — the checkpoint serialization walker.
    ///
    /// Writer-side: the walk iterates the edge-node registry that `link` /
    /// `cut` maintain, so the caller must hold whatever synchronization
    /// stops structural mutation (for the durable checkpoint path, the
    /// batch engine's leader lock). Concurrent lock-free readers are fine.
    pub fn for_each_tree_edge(&self, mut f: impl FnMut(u32, u32)) {
        self.edge_nodes.for_each(|&(u, v), _| f(u, v));
    }

    /// Collects the full Euler tour (node endpoints) of the tree rooted at
    /// `root`, in order. Vertex nodes appear as `(v, v)`.
    pub fn tour(&self, root: NodeRef) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.for_each_in_order(root, &mut |r| out.push(self.node(r).endpoints()));
        out
    }

    /// Exhaustively validates the tree rooted at `root` in time linear in
    /// its tour: exact parent pointers, the treap heap property, subtree
    /// sizes, and Euler-tour well-formedness. Panics on violation. Intended
    /// for tests and quiescent checks.
    ///
    /// Tours are *cyclic* sequences (any rotation is a legal
    /// linearization), and the tour checks are:
    ///
    /// 1. every vertex node appears exactly once;
    /// 2. every tree edge contributes exactly two tour nodes, oppositely
    ///    directed, and is the edge the registry holds for its key;
    /// 3. **nesting** — one stack pass where each edge's second node must
    ///    close the most recently opened edge, i.e. no two edges' node pairs
    ///    cross (crossing is a property of chords on a circle, so it does
    ///    not depend on the rotation the scan starts from);
    /// 4. **walk continuity** — the head of each element equals the tail of
    ///    the next, cyclically (a vertex node `(v, v)` has head and tail
    ///    `v`; an edge node `(a, b)` has tail `a` and head `b`);
    /// 5. every edge endpoint has its vertex node in this tour, and there is
    ///    exactly one more vertex than edges.
    ///
    /// These imply the *side property*: the vertices strictly between an
    /// edge's two nodes are exactly one side of the tree split by that edge.
    /// By 4 and 5 the tour is one closed walk over a connected edge set with
    /// `|V| - 1` edges on vertex set `V` — a tree, each edge traversed once
    /// in each direction. Take edge `e` with nodes `(a, b)` and `(b, a)` and
    /// let `S` be the segment strictly between them, running from `(a, b)`
    /// towards `(b, a)`. By 4, `S` is a closed walk from `b` to `b`; by 3 it
    /// uses only edges both of whose nodes lie in `S`, so never `e`; hence
    /// every vertex node in `S` lies on `b`'s side of `T - e`. The rest of
    /// the cycle is likewise a closed walk from `a` avoiding `e`, so its
    /// vertex nodes lie on `a`'s side. Each vertex appears once (1), so `S`
    /// holds exactly `b`'s side.
    pub fn validate_tree(&self, root: NodeRef) {
        assert!(self.node(root).is_root(), "root lacks is_root flag");
        let mut tour: Vec<NodeRef> = Vec::new();
        self.for_each_in_order(root, &mut |r| tour.push(r));
        // Structural invariants.
        let mut vertex_count = 0u32;
        for &r in &tour {
            let node = self.node(r);
            if node.vertex().is_some() {
                vertex_count += 1;
            }
            for child in [node.left(), node.right()] {
                if child.is_some() {
                    assert_eq!(
                        self.node(child).parent(),
                        r,
                        "child {child:?} of {r:?} has wrong parent"
                    );
                    assert!(
                        self.prio_key(child) < self.prio_key(r),
                        "heap property violated between {r:?} and {child:?}"
                    );
                }
            }
            let mut expect = u32::from(node.vertex().is_some());
            for child in [node.left(), node.right()] {
                if child.is_some() {
                    expect += self.node(child).size();
                }
            }
            assert_eq!(node.size(), expect, "subtree size of {r:?} is stale");
        }
        assert_eq!(self.node(root).size(), vertex_count, "root size mismatch");

        // Checks 1-3: one pass with the open-edge stack.
        let mut vertices = std::collections::HashSet::new();
        let mut first_node: std::collections::HashMap<(u32, u32), NodeRef> =
            std::collections::HashMap::new();
        let mut open: Vec<(u32, u32)> = Vec::new();
        let mut closed = 0usize;
        for &r in &tour {
            let node = self.node(r);
            if let Some(v) = node.vertex() {
                assert!(vertices.insert(v), "vertex {v} appears twice in the tour");
                continue;
            }
            let (a, b) = node.endpoints();
            let key = norm(a, b);
            match first_node.get(&key) {
                None => {
                    first_node.insert(key, r);
                    open.push(key);
                }
                Some(&first) => {
                    assert_eq!(
                        open.pop(),
                        Some(key),
                        "edge pairs of {key:?} and the most recently opened edge cross \
                         in the tour (or {key:?} has more than two nodes)"
                    );
                    assert_eq!(
                        self.node(first).endpoints(),
                        (b, a),
                        "the two nodes of {key:?} must be opposite"
                    );
                    let (fwd, bwd) = self
                        .edge_nodes
                        .get(&key)
                        .unwrap_or_else(|| panic!("tour edge {key:?} missing from the registry"));
                    let (lo_node, hi_node) = if a < b { (r, first) } else { (first, r) };
                    assert_eq!(
                        (fwd, bwd),
                        (lo_node, hi_node),
                        "registry nodes of {key:?} are not the ones in the tour"
                    );
                    closed += 1;
                }
            }
        }
        assert!(
            open.is_empty(),
            "tree edges {open:?} contribute only one tour node"
        );
        // Check 4: cyclic walk continuity.
        for (i, &r) in tour.iter().enumerate() {
            let next = tour[(i + 1) % tour.len()];
            let head = self.node(r).endpoints().1;
            let tail = self.node(next).endpoints().0;
            assert_eq!(
                head, tail,
                "tour breaks between {r:?} (head {head}) and {next:?} (tail {tail})"
            );
        }
        // Check 5: the edge set spans exactly the tour's vertices.
        for &(a, b) in first_node.keys() {
            assert!(
                vertices.contains(&a) && vertices.contains(&b),
                "edge ({a}, {b}) has an endpoint outside its tour"
            );
        }
        assert_eq!(
            closed + 1,
            vertices.len(),
            "a tour over {} vertices must hold {} edges",
            vertices.len(),
            vertices.len().saturating_sub(1)
        );
    }

    /// Validates every tree of the forest (writer-side, quiescent use only).
    pub fn validate(&self) {
        let mut seen_roots = std::collections::HashSet::new();
        for v in 0..self.versions.len() as u32 {
            let root = self.component_root(v);
            if seen_roots.insert(root) {
                self.validate_tree(root);
            }
        }
    }
}

impl std::fmt::Debug for EulerForest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EulerForest")
            .field("vertices", &self.num_vertices())
            .field("tree_edges", &self.edge_nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path 0-1-...-5 plus a branch 2-6, so some edge pairs nest.
    fn sample_tree() -> EulerForest {
        let f = EulerForest::with_seed(8, 42);
        for v in 0..5 {
            f.link(v, v + 1);
        }
        f.link(2, 6);
        f.validate();
        f
    }

    fn tour_nodes(f: &EulerForest, root: NodeRef) -> Vec<NodeRef> {
        let mut tour = Vec::new();
        f.for_each_in_order(root, &mut |r| tour.push(r));
        tour
    }

    /// Runs `validate` and returns its panic message (the test fails if it
    /// does not panic).
    fn validate_panic(f: &EulerForest) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.validate()))
            .expect_err("validate must reject the corrupted tree");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn validate_rejects_a_stale_size() {
        let f = sample_tree();
        let root = f.component_root(0);
        f.node(root).set_size(f.node(root).size() + 1);
        assert!(validate_panic(&f).contains("size"));
    }

    #[test]
    fn validate_rejects_crossing_edge_pairs() {
        let f = sample_tree();
        let tour = tour_nodes(&f, f.component_root(0));
        // Find edges A and B whose pairs nest: a1 < b1 < b2 < a2.
        let mut positions: std::collections::HashMap<(u32, u32), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &r) in tour.iter().enumerate() {
            if f.node(r).is_edge_node() {
                let (a, b) = f.node(r).endpoints();
                positions.entry(norm(a, b)).or_default().push(i);
            }
        }
        let pairs: Vec<&Vec<usize>> = positions.values().collect();
        let (outer, inner) = pairs
            .iter()
            .flat_map(|a| pairs.iter().map(move |b| (*a, *b)))
            .find(|(a, b)| a[0] < b[0] && b[1] < a[1])
            .expect("a tree with a path of length 5 has nested edge pairs");
        // Swapping the labels of the two closing nodes makes the pairs
        // a1 < b1 < a2' < b2' — a crossing, with sizes and heap untouched.
        let (x, y) = (f.node(tour[inner[1]]), f.node(tour[outer[1]]));
        let (ex, ey) = (x.endpoints(), y.endpoints());
        x.set_endpoints(ey.0, ey.1);
        y.set_endpoints(ex.0, ex.1);
        assert!(validate_panic(&f).contains("cross"));
    }

    #[test]
    fn validate_rejects_a_misplaced_vertex_node() {
        let f = sample_tree();
        // Swap the labels of two vertex nodes: every vertex still appears
        // once and every edge pair still nests, but each of the two nodes
        // now sits where the walk is at the other vertex.
        let (a, b) = (f.node(f.vertex_node_ref(0)), f.node(f.vertex_node_ref(4)));
        a.set_endpoints(4, 4);
        b.set_endpoints(0, 0);
        assert!(validate_panic(&f).contains("tour breaks"));
    }

    #[test]
    fn basic_link_cut_and_edge_walk() {
        let f = EulerForest::with_seed(8, 42);
        assert_eq!(f.num_vertices(), 8);
        assert!(!f.connected(0, 2));
        f.link(0, 1);
        f.link(1, 2);
        assert!(f.connected(0, 2));
        assert!(f.has_tree_edge(0, 1));
        assert_eq!(f.num_tree_edges(), 2);
        assert_eq!(f.component_size(0), 3);
        let root = f.find_root_node(0);
        assert!(f.is_current_root(root));
        assert_eq!(f.find_root_node(2), root);
        f.cut(1, 2);
        assert!(!f.connected(0, 2));
        let mut edges = Vec::new();
        f.for_each_tree_edge(|u, v| edges.push((u, v)));
        assert_eq!(edges, vec![(0, 1)]);
        f.validate();
    }

    #[test]
    fn marked_visit_reaches_self_marked_vertices() {
        let f = EulerForest::with_seed(6, 7);
        f.link(0, 1);
        f.link(1, 2);
        f.link(2, 3);
        f.mark_path_upward(2, Mark::NonSpanning);
        let root = f.component_root(0);
        let mut seen = Vec::new();
        f.visit_marked_vertices(root, Mark::NonSpanning, |v| {
            seen.push(v);
            ControlFlow::Continue(())
        });
        assert!(seen.contains(&2), "marked vertex must be visited: {seen:?}");
        // Break aborts immediately.
        let mut visits = 0;
        f.visit_marked_vertices(root, Mark::NonSpanning, |_| {
            visits += 1;
            ControlFlow::Break(())
        });
        assert_eq!(visits, 1);
    }

    #[test]
    fn build_trees_matches_incremental_links() {
        // Two trees (one branching) and two isolated vertices; the first
        // edge's nodes come reserved, the rest are allocated by the build.
        let edges = [(0, 1), (1, 2), (6, 2), (1, 3), (4, 5)];
        let built = EulerForest::with_seed(9, 42);
        built.mark_singleton(6, Mark::NonSpanning);
        let pair = built.try_reserve_edge_nodes().unwrap();
        built.build_trees(&edges, vec![pair]);
        built.validate();
        let linked = EulerForest::with_seed(9, 42);
        for &(u, v) in &edges {
            linked.link(u, v);
        }
        for u in 0..9 {
            for v in 0..9 {
                assert_eq!(built.connected(u, v), linked.connected(u, v), "({u}, {v})");
            }
            let (_, version) = built.find_root(u);
            assert!(!is_busy(version), "vertex {u}: root left busy");
        }
        assert_eq!(built.num_tree_edges(), edges.len());
        assert_eq!(built.component_size(3), 5);
        let mut seen = Vec::new();
        built.visit_marked_vertices(built.component_root(0), Mark::NonSpanning, |v| {
            seen.push(v);
            ControlFlow::Continue(())
        });
        assert!(seen.contains(&6), "marked vertex must be visited: {seen:?}");
        // The built trees support the incremental operations.
        built.cut(1, 2);
        built.link(3, 6);
        built.validate();
        assert!(built.connected(0, 2) && !built.connected(4, 0));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn build_trees_rejects_a_cycle() {
        EulerForest::with_seed(4, 1).build_trees(&[(0, 1), (1, 2), (2, 0)], Vec::new());
    }

    #[test]
    #[should_panic(expected = "not a singleton")]
    fn build_trees_rejects_a_linked_endpoint() {
        let f = EulerForest::with_seed(4, 1);
        f.link(0, 1);
        f.build_trees(&[(1, 2)], Vec::new());
    }

    #[test]
    fn versions_are_even_between_operations() {
        let f = EulerForest::with_seed(4, 1);
        f.link(0, 1);
        f.link(1, 2);
        let cut = f.prepare_cut(0, 1);
        f.commit_cut(&cut);
        for v in 0..4 {
            let (_, version) = f.find_root(v);
            assert!(!is_busy(version), "vertex {v}: root left busy");
        }
    }

    /// `Counter::HintInvalidations` counts only invalidations of hints that
    /// can exist: a forest whose hint table was never built (every upper HDT
    /// level, and a level 0 that has served no query) records none, however
    /// many links and cuts it takes.
    #[test]
    fn only_forests_with_a_hint_table_count_invalidations() {
        let churn = |f: &EulerForest| {
            for v in 1..8 {
                f.link(v - 1, v);
            }
            for v in 1..8 {
                f.cut(v - 1, v);
            }
        };
        let f = EulerForest::with_seed(8, 0);
        churn(&f);
        assert!(!f.hints_materialized());
        assert_eq!(
            f.tally().get(Counter::HintInvalidations),
            0,
            "a forest that never served a query holds no hint to invalidate"
        );
        assert!(!f.connected(0, 7));
        assert!(f.hints_materialized());
        churn(&f);
        assert!(
            f.tally().get(Counter::HintInvalidations) > 0,
            "links and cuts on a queried forest invalidate its hints"
        );
    }
}
