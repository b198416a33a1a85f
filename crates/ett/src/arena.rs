//! A concurrent node arena with epoch-based slot recycling.
//!
//! The single-writer Euler Tour Tree stores its nodes in an arena and
//! addresses them with dense `u32` indices ([`NodeRef`]).  Readers traverse
//! parent pointers while writers restructure the trees, so the arena has to
//! satisfy two requirements that a plain `Vec<Node>` cannot:
//!
//! 1. **Stable addresses.** Growing the arena must never move existing nodes,
//!    because a concurrent reader may be dereferencing them at that very
//!    moment.  Nodes therefore live in fixed-size chunks that are allocated
//!    once and never reallocated; the chunk directory is a fixed array of
//!    `AtomicPtr`s.
//! 2. **No reuse while readers may still traverse a retired node.** The
//!    paper's implementation runs on the JVM and leans on garbage collection:
//!    a reader holding a stale reference keeps the node alive.  Early
//!    versions of this arena reproduced that by never recycling slots, which
//!    made a long-running churn workload grow memory linearly with the
//!    *operation count*.  The arena now reproduces the GC guarantee with
//!    **epoch-based reclamation** ([`dc_sync::epoch`]): readers pin the
//!    arena's epoch domain for the duration of a traversal, `cut` retires
//!    its two tour edge nodes into limbo, and a retired slot returns to the
//!    free list only after two grace periods — once no pinned reader can
//!    still hold a path to it.  Arena occupancy is therefore bounded by the
//!    peak *live* tour size (plus a small limbo buffer), not by history.
//!    The safety argument is laid out in `DESIGN.md` §4.
//!
//! Chunk memory is allocated **raw and uninitialized**; each slot is
//! initialized (or re-initialized, when recycled) by the single `alloc`
//! caller that receives its index, before the index is published.  This
//! keeps the loser of a chunk-installation race from paying for 16Ki
//! `Node::new_unlinked()` constructions that are immediately thrown away —
//! losing the race now costs one raw `dealloc`.
//!
//! Allocation is thread-safe (several writers operating on disjoint
//! components may allocate edge nodes concurrently in the fine-grained
//! variants).

use crate::node::Node;
use dc_faults::{ChaosSchedule, InjectionPoint};
use dc_sync::epoch::{EpochDomain, EpochGuard, Limbo};
use parking_lot::Mutex;
use std::alloc::Layout;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Typed arena-capacity error: the allocation could not be satisfied
/// without exceeding the arena's slot budget (or an attached chaos
/// schedule injected that condition — see `dc_faults`). Callers surface
/// this as a rejected operation instead of aborting; see `DESIGN.md` §13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaExhausted;

impl std::fmt::Display for ArenaExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arena exhausted: node slot budget exceeded")
    }
}

impl std::error::Error for ArenaExhausted {}

/// Index of a node inside the arena. `NodeRef::NONE` is the null reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub u32);

impl NodeRef {
    /// The null node reference.
    pub const NONE: NodeRef = NodeRef(u32::MAX);

    /// Returns `true` if this is the null reference.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// Returns `true` if this is a real node reference.
    #[inline]
    pub fn is_some(self) -> bool {
        self != Self::NONE
    }

    /// Converts to `Option<NodeRef>`, mapping `NONE` to `None`.
    #[inline]
    pub fn some(self) -> Option<NodeRef> {
        if self.is_none() {
            None
        } else {
            Some(self)
        }
    }
}

impl std::fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "NodeRef(NONE)")
        } else {
            write!(f, "NodeRef({})", self.0)
        }
    }
}

/// Number of nodes per chunk (16 Ki nodes).
const CHUNK_BITS: u32 = 14;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_SIZE - 1;
/// Maximum number of chunks (allows up to ~268M nodes — sized for the
/// huge-graph bench tier, where a 50M-vertex forest with tens of millions
/// of spanning edges needs well over the previous ~67M-slot ceiling; the
/// directory itself is just `MAX_CHUNKS` atomic pointers, so the headroom
/// costs 128 KiB regardless of use).
const MAX_CHUNKS: usize = 16384;

fn chunk_layout() -> Layout {
    Layout::array::<Node>(CHUNK_SIZE).expect("chunk layout")
}

/// The chunked, epoch-recycling node arena. See the module documentation.
pub struct Arena {
    chunks: Box<[AtomicPtr<Node>]>,
    /// High-water mark: number of slots ever handed out by the bump path
    /// (every index below it is backed by chunk memory).
    len: AtomicU32,
    /// Recycled slot indices, ready for immediate reuse.
    free: Mutex<Vec<u32>>,
    /// Length of `free`, readable without the mutex: lets the alloc fast
    /// path skip the lock entirely while the free list is empty (e.g. the
    /// whole incremental workload), keeping bump allocation lock-free.
    free_count: AtomicU32,
    /// Retired slot indices waiting out their grace period.
    limbo: Limbo<u32>,
    /// The reclamation domain readers pin while traversing.
    domain: EpochDomain,
    /// Bump-path slot budget (`u32::MAX` = only the chunk directory
    /// bounds growth). A tiny limit is the test door for exercising the
    /// [`ArenaExhausted`] path without allocating 268M nodes.
    node_limit: AtomicU32,
    /// Chaos schedule consulted by [`Arena::try_alloc`] and the epoch
    /// advance; unset outside fault-injection runs.
    chaos: OnceLock<Arc<ChaosSchedule>>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        let chunks = (0..MAX_CHUNKS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arena {
            chunks,
            len: AtomicU32::new(0),
            free: Mutex::new(Vec::new()),
            free_count: AtomicU32::new(0),
            limbo: Limbo::new(),
            domain: EpochDomain::new(),
            node_limit: AtomicU32::new(u32::MAX),
            chaos: OnceLock::new(),
        }
    }

    /// Caps the bump path at `limit` total slots (`None` removes the cap).
    /// Recycled slots stay allocatable — the cap bounds arena *growth*, so
    /// a capped arena keeps serving a churn workload whose live set fits.
    pub fn set_node_limit(&self, limit: Option<u32>) {
        self.node_limit
            .store(limit.unwrap_or(u32::MAX), Ordering::Relaxed);
    }

    /// Attaches a chaos schedule to this arena: [`Arena::try_alloc`] fails
    /// on its [`InjectionPoint::ArenaAlloc`] ordinals and epoch advances
    /// stall on its [`InjectionPoint::EpochAdvanceDelay`] ordinals.
    ///
    /// # Panics
    ///
    /// If a schedule is already attached.
    pub fn attach_chaos(&self, schedule: Arc<ChaosSchedule>) {
        assert!(
            self.chaos.set(schedule).is_ok(),
            "a chaos schedule is already attached to this arena"
        );
    }

    /// Number of slots backed by arena memory (the high-water mark — the
    /// memory-footprint proxy tracked by the churn benchmark). Recycled
    /// slots stay counted; `free_len` / `retired_len` break the total down.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Returns `true` if no node has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recycled slots currently available for reuse.
    pub fn free_len(&self) -> usize {
        self.free_count.load(Ordering::Relaxed) as usize
    }

    /// Number of retired slots still waiting out a grace period.
    pub fn retired_len(&self) -> usize {
        self.limbo.retired_len()
    }

    /// The arena's reclamation domain (observability for tests).
    pub fn domain(&self) -> &EpochDomain {
        &self.domain
    }

    /// Pins the calling thread: until the guard drops, no slot the thread
    /// can reach through (possibly stale) parent pointers is recycled.
    #[inline]
    pub fn pin(&self) -> EpochGuard<'_> {
        self.domain.pin()
    }

    fn chunk_ptr(&self, chunk_idx: usize) -> *mut Node {
        self.chunks[chunk_idx].load(Ordering::Acquire)
    }

    fn ensure_chunk(&self, chunk_idx: usize) -> *mut Node {
        assert!(
            chunk_idx < MAX_CHUNKS,
            "arena exhausted: more than {} nodes requested",
            MAX_CHUNKS * CHUNK_SIZE
        );
        let existing = self.chunk_ptr(chunk_idx);
        if !existing.is_null() {
            return existing;
        }
        // Allocate the chunk raw: slots are initialized one by one, each by
        // the unique `alloc` caller that receives the slot, so neither the
        // winner nor the loser of the installation race constructs 16Ki
        // nodes up front.
        // SAFETY: the layout is non-zero-sized; the memory is published
        // uninitialized but no slot is read before `alloc` initializes it.
        let ptr = unsafe { std::alloc::alloc(chunk_layout()) as *mut Node };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(chunk_layout());
        }
        match self.chunks[chunk_idx].compare_exchange(
            std::ptr::null_mut(),
            ptr,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => ptr,
            Err(winner) => {
                // Another allocator won the race; free ours and use theirs.
                // SAFETY: `ptr` came from `std::alloc::alloc` with the same
                // layout above and was never published.
                unsafe { std::alloc::dealloc(ptr as *mut u8, chunk_layout()) };
                winner
            }
        }
    }

    /// Pointer to slot `idx`; the chunk must already exist.
    fn slot_ptr(&self, idx: u32) -> *mut Node {
        let chunk_idx = (idx >> CHUNK_BITS) as usize;
        let ptr = self.chunk_ptr(chunk_idx);
        assert!(!ptr.is_null(), "node chunk {chunk_idx} not allocated");
        // SAFETY: in-bounds offset within one chunk allocation.
        unsafe { ptr.add(idx as usize & CHUNK_MASK) }
    }

    /// Allocates a node slot — recycled if a grace period has freed one,
    /// fresh from the bump path otherwise — and returns its reference.
    ///
    /// The returned node is in the "unlinked" state (no parent, no children,
    /// zero priority); the caller initializes its fields before publishing
    /// the reference to other threads.
    pub fn alloc(&self) -> NodeRef {
        match self.try_alloc_capacity() {
            Ok(r) => r,
            Err(ArenaExhausted) => panic!(
                "arena exhausted: more than {} nodes requested",
                self.node_limit
                    .load(Ordering::Relaxed)
                    .min((MAX_CHUNKS * CHUNK_SIZE) as u32)
            ),
        }
    }

    /// Fallible allocation: [`Arena::alloc`] semantics, but capacity
    /// exhaustion (chunk directory full, or past a [`Arena::set_node_limit`]
    /// cap) comes back as a typed [`ArenaExhausted`] instead of a panic,
    /// and an attached chaos schedule ([`Arena::attach_chaos`]) can inject
    /// that failure on its [`InjectionPoint::ArenaAlloc`] ordinals.
    ///
    /// Forest `try_link` doors allocate through this entry so an
    /// over-capacity insert degrades to a rejected operation; interior
    /// restructuring (which must not fail halfway) stays on the infallible
    /// [`Arena::alloc`], whose failure is handled by the engine's unwind
    /// boundary instead (`DESIGN.md` §13).
    pub fn try_alloc(&self) -> Result<NodeRef, ArenaExhausted> {
        if self
            .chaos
            .get()
            .is_some_and(|c| c.fires(InjectionPoint::ArenaAlloc))
        {
            return Err(ArenaExhausted);
        }
        self.try_alloc_capacity()
    }

    /// Capacity-checked allocation shared by [`Arena::alloc`] (which panics
    /// on `Err`) and [`Arena::try_alloc`] (which also consults chaos).
    fn try_alloc_capacity(&self) -> Result<NodeRef, ArenaExhausted> {
        // Fast path: a recycled slot (skips even the mutex while the free
        // list is empty, so bump allocation stays lock-free with respect to
        // other allocators).
        let idx = match self.pop_free() {
            Some(idx) => idx,
            None => match self.collect_for_alloc() {
                Some(idx) => idx,
                None => {
                    let limit = self.node_limit.load(Ordering::Relaxed);
                    let idx = self.len.fetch_add(1, Ordering::AcqRel);
                    if idx == u32::MAX || idx >= limit || (idx >> CHUNK_BITS) as usize >= MAX_CHUNKS
                    {
                        // Undo our own increment. Concurrent failers each
                        // undo exactly their own, so the counter conserves;
                        // a racing success may be rejected spuriously during
                        // the transient overshoot, which is safe (rejection
                        // is always a legal outcome at capacity).
                        self.len.fetch_sub(1, Ordering::AcqRel);
                        return Err(ArenaExhausted);
                    }
                    self.ensure_chunk((idx >> CHUNK_BITS) as usize);
                    idx
                }
            },
        };
        // (Re-)initialize the slot before handing it out. No other thread
        // holds this index: fresh indices are unpublished, and recycled ones
        // survived two grace periods since retirement.
        // SAFETY: the slot is backed by an existing chunk and unaliased.
        unsafe { std::ptr::write(self.slot_ptr(idx), Node::new_unlinked()) };
        Ok(NodeRef(idx))
    }

    /// Allocates `n` consecutive fresh slots with one bump of the
    /// high-water mark and writes `init(i)` into the `i`-th; returns the
    /// first slot. Every chunk the block spans is installed once, not per
    /// slot. For populating a structure before any other thread can see it
    /// (a new forest's vertex nodes): the free list and the chaos point are
    /// not consulted, and a block past capacity panics like
    /// [`Arena::alloc`].
    pub(crate) fn alloc_block(&self, n: usize, mut init: impl FnMut(usize) -> Node) -> NodeRef {
        let capacity = self
            .node_limit
            .load(Ordering::Relaxed)
            .min((MAX_CHUNKS * CHUNK_SIZE) as u32) as usize;
        let count = u32::try_from(n).expect("block larger than the arena");
        let first = self.len.fetch_add(count, Ordering::AcqRel) as usize;
        if first + n > capacity {
            self.len.fetch_sub(count, Ordering::AcqRel);
            panic!("arena exhausted: more than {capacity} nodes requested");
        }
        let mut idx = first;
        while idx < first + n {
            let chunk = self.ensure_chunk(idx >> CHUNK_BITS);
            let end = (first + n).min((idx | CHUNK_MASK) + 1);
            for slot in idx..end {
                // SAFETY: `slot` lies inside the chunk just ensured, and it
                // is unaliased: the bump above handed this block to us
                // alone, and nobody holds its indices yet.
                unsafe { std::ptr::write(chunk.add(slot & CHUNK_MASK), init(slot - first)) };
            }
            idx = end;
        }
        NodeRef(first as u32)
    }

    /// Returns a slot obtained from [`Arena::try_alloc`] that was **never
    /// published** (no other thread ever saw its index) straight to the
    /// free list — no grace period needed. This is the cleanup door for a
    /// multi-node operation whose later allocation failed.
    pub fn release_unpublished(&self, r: NodeRef) {
        debug_assert!(r.is_some(), "released NodeRef::NONE");
        self.free.lock().push(r.0);
        self.free_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Slow path of [`Arena::alloc`]: tries to graduate retired slots whose
    /// grace period elapsed. A bin needs up to two epoch advances to come
    /// due, and an advance fails while any reader is still pinned one epoch
    /// behind — reader pins are walk-sized (microseconds), so a short,
    /// *bounded* retry loop recovers most transient failures instead of
    /// permanently growing the arena by a fresh slot. When the retries
    /// don't pan out (a reader preempted while pinned, or genuinely
    /// parked), the caller bump-allocates and moves on: trading a bounded
    /// sliver of arena growth for never blocking the writer on readers.
    fn collect_for_alloc(&self) -> Option<u32> {
        if self.limbo.retired_len() == 0 {
            return None;
        }
        for _ in 0..4 {
            self.drain_limbo_into_free();
            if let Some(idx) = self.pop_free() {
                return Some(idx);
            }
            if self.limbo.retired_len() == 0 {
                return None;
            }
            for _ in 0..32 {
                std::hint::spin_loop();
            }
        }
        None
    }

    /// Pops a recycled slot, maintaining the lock-free length mirror.
    fn pop_free(&self) -> Option<u32> {
        if self.free_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let got = self.free.lock().pop();
        if got.is_some() {
            self.free_count.fetch_sub(1, Ordering::Relaxed);
        }
        got
    }

    /// Runs one collect with the free mutex held only for the final splice,
    /// not across the epoch advance and bin drain.
    fn drain_limbo_into_free(&self) -> usize {
        // Chaos: hold the epoch advance back, as if a pinned reader were
        // parked mid-walk — limbo keeps growing and allocation falls through
        // to the bump path, exactly the pattern the watchdog's epoch probe
        // and the capacity-rejection machinery must absorb.
        if let Some(chaos) = self.chaos.get() {
            chaos.stall(InjectionPoint::EpochAdvanceDelay);
        }
        let mut drained: Vec<u32> = Vec::new();
        self.limbo
            .try_collect(&self.domain, |idx| drained.push(idx));
        let n = drained.len();
        if n > 0 {
            self.free.lock().extend(drained);
            self.free_count.fetch_add(n as u32, Ordering::Relaxed);
        }
        dc_obs::counter_add(dc_obs::Counter::EpochCollects, 1);
        dc_obs::counter_add(dc_obs::Counter::EpochNodesReclaimed, n as u64);
        if dc_obs::metrics_enabled() || dc_obs::tracing_enabled() {
            let allocated = self.len.load(Ordering::Relaxed) as u64;
            let free = self.free_count.load(Ordering::Relaxed) as u64;
            let live = allocated.saturating_sub(free);
            dc_obs::gauge_set(dc_obs::Gauge::ArenaOccupancy, live);
            dc_obs::event(dc_obs::EventKind::EpochAdvance, n as u64, live);
        }
        n
    }

    /// Retires a slot: once every thread pinned early enough to still reach
    /// the node has unpinned, the slot returns to the free list.
    ///
    /// The caller must guarantee no *new* traversal can reach `r` (its index
    /// must no longer be stored in any reachable parent/child link), and
    /// must not retire the same reference twice.
    pub fn retire(&self, r: NodeRef) {
        debug_assert!(r.is_some(), "retired NodeRef::NONE");
        let retired = self.limbo.retire(&self.domain, r.0);
        self.maybe_collect_on_retire(retired);
    }

    /// [`Arena::retire`] for the pair a `cut` produces: one epoch read and
    /// one limbo lock instead of two of each.
    pub fn retire_pair(&self, a: NodeRef, b: NodeRef) {
        debug_assert!(a.is_some() && b.is_some(), "retired NodeRef::NONE");
        let retired = self.limbo.retire_pair(&self.domain, a.0, b.0);
        self.maybe_collect_on_retire(retired);
    }

    /// Opportunistic, amortized collection: attempting an epoch advance on
    /// roughly every 64th retired slot keeps the free list stocked ahead of
    /// demand, so `alloc` rarely faces an empty list during the short
    /// window in which a concurrent reader blocks an advance — the case
    /// that would force permanent arena growth.
    /// `retired` is the post-retire counter value returned by the limbo
    /// (not a re-read, which could race past the trigger residues under
    /// concurrent retirers); `< 2` catches both parities of `retire_pair`.
    #[inline]
    fn maybe_collect_on_retire(&self, retired: usize) {
        if retired & 63 < 2 {
            self.drain_limbo_into_free();
        }
    }

    /// Returns a shared reference to the node at `r`.
    ///
    /// # Panics
    /// Panics if `r` is `NONE` or out of bounds.
    #[inline]
    pub fn node(&self, r: NodeRef) -> &Node {
        assert!(r.is_some(), "dereferenced NodeRef::NONE");
        let idx = r.0 as usize;
        debug_assert!(idx < self.len(), "node index {idx} out of bounds");
        let chunk_idx = idx >> CHUNK_BITS;
        let ptr = self.chunk_ptr(chunk_idx);
        assert!(!ptr.is_null(), "node chunk {chunk_idx} not allocated");
        // SAFETY: chunks are never freed or moved while the arena is alive,
        // every slot below `len` was initialized by the `alloc` that first
        // handed it out, and `Node` only contains atomics, so shared access
        // from any thread is sound.
        unsafe { &*ptr.add(idx & CHUNK_MASK) }
    }
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for chunk in self.chunks.iter() {
            let ptr = chunk.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: the pointer was produced by `std::alloc::alloc`
                // with this layout in `ensure_chunk`; `Node` needs no drop
                // (checked by a const assertion in `crate::node`), so a raw
                // dealloc suffices even for never-initialized slots.
                unsafe { std::alloc::dealloc(ptr as *mut u8, chunk_layout()) };
            }
        }
    }
}

// SAFETY: all shared state is accessed through atomics, mutexes or `Node`'s
// interior-mutable fields.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noderef_none_behaviour() {
        assert!(NodeRef::NONE.is_none());
        assert!(!NodeRef::NONE.is_some());
        assert_eq!(NodeRef::NONE.some(), None);
        assert_eq!(NodeRef(3).some(), Some(NodeRef(3)));
    }

    #[test]
    fn alloc_returns_dense_indices() {
        let arena = Arena::new();
        assert!(arena.is_empty());
        let a = arena.alloc();
        let b = arena.alloc();
        let c = arena.alloc();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn nodes_are_distinct_and_addressable() {
        let arena = Arena::new();
        let refs: Vec<NodeRef> = (0..100).map(|_| arena.alloc()).collect();
        for (i, &r) in refs.iter().enumerate() {
            arena.node(r).set_priority(i as u32);
        }
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(arena.node(r).priority(), i as u32);
        }
    }

    #[test]
    fn block_allocation_spans_chunks_and_continues_the_bump() {
        let arena = Arena::new();
        let first = arena.alloc();
        let n = CHUNK_SIZE + 5;
        let block = arena.alloc_block(n, |i| {
            let node = Node::new_unlinked();
            node.set_size(i as u32);
            node
        });
        assert_eq!(block, NodeRef(1));
        assert_eq!(arena.len(), n + 1);
        for i in [0, CHUNK_SIZE - 2, CHUNK_SIZE - 1, n - 1] {
            assert_eq!(arena.node(NodeRef(1 + i as u32)).size(), i as u32);
        }
        assert_eq!(arena.alloc(), NodeRef(n as u32 + 1));
        assert_ne!(first, block);
    }

    #[test]
    fn allocation_crosses_chunk_boundary() {
        let arena = Arena::new();
        let count = CHUNK_SIZE + 10;
        let refs: Vec<NodeRef> = (0..count).map(|_| arena.alloc()).collect();
        assert_eq!(arena.len(), count);
        // Touch the first and last to make sure both chunks are live.
        arena.node(refs[0]).set_priority(7);
        arena.node(refs[count - 1]).set_priority(9);
        assert_eq!(arena.node(refs[0]).priority(), 7);
        assert_eq!(arena.node(refs[count - 1]).priority(), 9);
    }

    #[test]
    #[should_panic]
    fn dereferencing_none_panics() {
        let arena = Arena::new();
        let _ = arena.node(NodeRef::NONE);
    }

    #[test]
    fn retired_slots_are_recycled_after_grace_periods() {
        let arena = Arena::new();
        let refs: Vec<NodeRef> = (0..8).map(|_| arena.alloc()).collect();
        for &r in &refs[..4] {
            arena.retire(r);
        }
        assert_eq!(arena.retired_len(), 4);
        // With no pinned readers, allocations graduate the retired slots
        // (each alloc can advance the epoch once; two advances complete the
        // grace period) instead of growing the arena.
        let mut reused = Vec::new();
        for _ in 0..4 {
            reused.push(arena.alloc().0);
        }
        let high_water = arena.len();
        assert!(
            reused
                .iter()
                .any(|idx| refs[..4].iter().any(|r| r.0 == *idx)),
            "no retired slot was recycled: {reused:?}"
        );
        assert!(high_water <= 12, "arena grew past the un-recycled bound");
    }

    #[test]
    fn pinned_reader_blocks_recycling() {
        let arena = Arena::new();
        let r = arena.alloc();
        let guard = arena.pin();
        arena.retire(r);
        for _ in 0..8 {
            let fresh = arena.alloc();
            assert_ne!(fresh, r, "slot recycled under an active pin");
        }
        drop(guard);
        let mut saw_reuse = false;
        for _ in 0..8 {
            if arena.alloc() == r {
                saw_reuse = true;
                break;
            }
        }
        assert!(saw_reuse, "slot never recycled after the pin dropped");
    }

    #[test]
    fn recycled_slots_come_back_unlinked() {
        let arena = Arena::new();
        let r = arena.alloc();
        let node = arena.node(r);
        node.set_endpoints(3, 9);
        node.set_priority(17);
        node.set_parent(NodeRef(0));
        node.set_is_root(true);
        node.set_agg_mark(crate::node::Mark::Spanning, true);
        arena.retire(r);
        loop {
            let fresh = arena.alloc();
            if fresh == r {
                break;
            }
        }
        let node = arena.node(r);
        assert!(node.parent().is_none());
        assert_eq!(node.priority(), 0);
        assert_eq!(node.vertex(), None);
        assert!(!node.is_root());
        assert!(!node.agg_mark(crate::node::Mark::Spanning));
    }

    #[test]
    fn concurrent_allocation_yields_unique_slots() {
        let arena = Arc::new(Arena::new());
        let threads = 4;
        let per_thread = 5000;
        let mut all: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let arena = Arc::clone(&arena);
                    s.spawn(move || (0..per_thread).map(|_| arena.alloc().0).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), threads * per_thread);
        assert_eq!(arena.len(), threads * per_thread);
    }

    #[test]
    fn tiny_arena_exhaustion_is_typed_and_survivable() {
        let arena = Arena::new();
        arena.set_node_limit(Some(2));
        let a = arena.try_alloc().expect("slot 0");
        let b = arena.try_alloc().expect("slot 1");
        // The cap binds: growth is rejected with the typed error, repeatedly
        // and without damaging the arena.
        assert_eq!(arena.try_alloc(), Err(ArenaExhausted));
        assert_eq!(arena.try_alloc(), Err(ArenaExhausted));
        assert_eq!(arena.len(), 2);
        // Existing slots still work.
        arena.node(a).set_priority(5);
        assert_eq!(arena.node(a).priority(), 5);
        // Recycling still works at the cap: a retired slot graduates and is
        // allocatable again even though the bump path is closed.
        arena.retire(b);
        let mut recycled = None;
        for _ in 0..8 {
            if let Ok(r) = arena.try_alloc() {
                recycled = Some(r);
                break;
            }
        }
        assert_eq!(recycled, Some(b), "capped arena failed to recycle");
        // Lifting the cap restores growth.
        arena.set_node_limit(None);
        assert!(arena.try_alloc().is_ok());
    }

    #[test]
    fn release_unpublished_returns_the_slot_immediately() {
        let arena = Arena::new();
        let a = arena.try_alloc().unwrap();
        arena.release_unpublished(a);
        assert_eq!(arena.free_len(), 1);
        // The very next allocation reuses it — no grace period.
        assert_eq!(arena.try_alloc().unwrap(), a);
    }

    #[test]
    fn chaos_schedule_injects_try_alloc_failures_but_not_alloc() {
        let schedule = Arc::new(ChaosSchedule::from_config(dc_faults::ChaosConfig {
            seed: 11,
            horizon: 1,
            // Only the ArenaAlloc point, firing at ordinal 0.
            faults_per_point: [0, 0, 1, 0, 0],
            stall: std::time::Duration::from_micros(1),
        }));
        let arena = Arena::new();
        arena.attach_chaos(Arc::clone(&schedule));
        assert_eq!(arena.try_alloc(), Err(ArenaExhausted));
        assert!(arena.try_alloc().is_ok(), "only ordinal 0 should fire");
        // The infallible path never consults the schedule.
        let _ = arena.alloc();
        // A second arena never sees the first one's schedule.
        assert!(Arena::new().try_alloc().is_ok());
        assert_eq!(
            schedule.fired(InjectionPoint::ArenaAlloc),
            1,
            "alloc() must not consume chaos ordinals"
        );
        assert_eq!(schedule.checks(InjectionPoint::ArenaAlloc), 2);
    }

    #[test]
    fn concurrent_churn_stays_bounded() {
        // Writers alternately allocate and retire while readers pin/unpin;
        // the high-water mark must stay near the live count, far below the
        // total allocation count.
        let arena = Arc::new(Arena::new());
        let writers = 2;
        let rounds = 4000;
        std::thread::scope(|s| {
            for _ in 0..writers {
                let arena = Arc::clone(&arena);
                s.spawn(move || {
                    for _ in 0..rounds {
                        let r = arena.alloc();
                        arena.retire(r);
                    }
                });
            }
            for _ in 0..2 {
                let arena = Arc::clone(&arena);
                s.spawn(move || {
                    for _ in 0..rounds {
                        let _g = arena.pin();
                    }
                });
            }
        });
        let total = writers * rounds;
        assert!(
            arena.len() < total / 4,
            "arena grew to {} slots for {} transient allocations",
            arena.len(),
            total
        );
    }
}
