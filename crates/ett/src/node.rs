//! The Euler Tour Tree node — the hot, cache-compact core.
//!
//! Nodes form a Cartesian tree (treap) over the Euler tour of each spanning
//! tree.  The struct is kept to **32 bytes** (two nodes per cache line) by
//! storing only what the treap hot paths touch:
//!
//! * the `parent` link concurrent readers follow (Release stores / Acquire
//!   loads — see the memory-model note below);
//! * children, subtree size and endpoints, only ever touched by the
//!   component's unique writer (relaxed atomics keep the node `Sync`
//!   without an `UnsafeCell`);
//! * a 32-bit immutable-after-init heap priority;
//! * one packed flags byte holding the writer-side `is_root` bit and the
//!   four subtree-mark bits, maintained with `fetch_or`/`fetch_and` so the
//!   lock-free mark-raising path never loses a concurrent writer's bit.
//!
//! Everything a node does *not* need per-instance lives in side tables in
//! [`crate::forest::EulerForest`], indexed by vertex id: the per-component
//! root **version** and the per-component **lock** are meaningful only on
//! treap roots, and the priority-band invariant (below) makes every root a
//! vertex node — so 2n + 2m nodes carry neither an 8-byte version nor a
//! lock word.
//!
//! Vertex nodes are permanent; Euler-tour *edge* nodes are created on
//! `link`, retired on `cut`, and their slots recycled once an epoch grace
//! period guarantees no in-flight reader can still traverse them (see
//! [`crate::arena`] and `DESIGN.md` §4).
//!
//! Priorities live in two disjoint bands: vertex nodes draw from the upper
//! half of the `u32` range and edge nodes from the lower half.  This
//! guarantees that the treap root of any Euler tour is always a vertex node,
//! which in turn guarantees the invariants the single-writer protocol relies
//! on: the node that represents a component (its treap root) can never be a
//! node that a `cut` is about to retire, and the pre-determined common root
//! of a `link` is always the higher-priority old root (paper, Section 3,
//! "Atomic Merge and Split").
//!
//! # Memory-model note
//!
//! The seed implementation used `SeqCst` for every reader-visible field.
//! The proof only needs:
//!
//! * **root versions totally ordered** — they stay `SeqCst`, in the
//!   forest's side table;
//! * **node initialization visible before the node is reachable** — a node
//!   becomes reachable for readers only as the value of some *other* node's
//!   parent pointer; the Release store publishing that pointer makes all
//!   program-order-earlier initialization writes visible to the Acquire
//!   load that discovered it.
//!
//! Upward walks therefore only need Acquire/Release on `parent`; on x86
//! this turns the hottest store in `link`/`cut` restructuring from an
//! `xchg` into a plain `mov`.

use crate::arena::NodeRef;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// Which subtree-summary flag to address (paper Listing 5: the
/// `has_non_spanning_edges` / `has_spanning_edges` pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// "Some vertex in this subtree has adjacent non-spanning edges at this
    /// level."
    NonSpanning = 0,
    /// "Some vertex in this subtree has adjacent spanning edges of exactly
    /// this level."
    Spanning = 1,
}

/// Writer-side "this node is currently a treap root" flag.
const F_IS_ROOT: u8 = 1 << 0;
/// Self-contribution mark bits (`1 << (SELF_SHIFT + mark)`).
const SELF_SHIFT: u8 = 1;
/// Subtree-aggregate mark bits (`1 << (AGG_SHIFT + mark)`).
const AGG_SHIFT: u8 = 3;

/// A treap node; see the module documentation.
pub struct Node {
    /// Parent link followed by concurrent readers (Release/Acquire).
    parent: AtomicU32,
    /// Left / right children (writer-only).
    left: AtomicU32,
    right: AtomicU32,
    /// Number of *vertex* nodes in this subtree (writer-only).
    size: AtomicU32,
    /// Graph endpoints: for a vertex node `a == b == v`; for the Euler-tour
    /// node of directed edge `u -> v`, `a == u`, `b == v`.
    a: AtomicU32,
    b: AtomicU32,
    /// Immutable-after-init heap priority (banded, see module docs).
    priority: AtomicU32,
    /// Packed `is_root` + self-mark + aggregate-mark bits. Updated with
    /// atomic RMWs: the lock-free mark-raising path may race with the
    /// writer's structural bookkeeping on the same byte.
    flags: AtomicU8,
}

/// The whole point of the hot/cold split: two nodes per cache line.
const _: () = assert!(std::mem::size_of::<Node>() == 32);
/// The arena reclaims slots by overwrite + raw dealloc; nothing to drop.
const _: () = assert!(!std::mem::needs_drop::<Node>());

impl Node {
    /// Creates a fully unlinked node (used by the arena to initialize a
    /// slot when it is first handed out or recycled).
    pub fn new_unlinked() -> Self {
        Node {
            parent: AtomicU32::new(NodeRef::NONE.0),
            left: AtomicU32::new(NodeRef::NONE.0),
            right: AtomicU32::new(NodeRef::NONE.0),
            size: AtomicU32::new(0),
            a: AtomicU32::new(u32::MAX),
            b: AtomicU32::new(u32::MAX),
            priority: AtomicU32::new(0),
            flags: AtomicU8::new(0),
        }
    }

    /// Creates the permanent tour node of vertex `v`: a one-node tree,
    /// root of its own treap.
    pub(crate) fn new_vertex(v: u32, priority: u32) -> Self {
        Node {
            parent: AtomicU32::new(NodeRef::NONE.0),
            left: AtomicU32::new(NodeRef::NONE.0),
            right: AtomicU32::new(NodeRef::NONE.0),
            size: AtomicU32::new(1),
            a: AtomicU32::new(v),
            b: AtomicU32::new(v),
            priority: AtomicU32::new(priority),
            flags: AtomicU8::new(F_IS_ROOT),
        }
    }

    // ----- reader-visible fields -------------------------------------------

    /// Reads the parent link (used by concurrent readers).
    #[inline]
    pub fn parent(&self) -> NodeRef {
        NodeRef(self.parent.load(Ordering::Acquire))
    }

    /// Writes the parent link (writer only).
    #[inline]
    pub fn set_parent(&self, p: NodeRef) {
        self.parent.store(p.0, Ordering::Release);
    }

    // ----- writer-only structural fields -----------------------------------

    /// Left child.
    #[inline]
    pub fn left(&self) -> NodeRef {
        NodeRef(self.left.load(Ordering::Relaxed))
    }

    /// Right child.
    #[inline]
    pub fn right(&self) -> NodeRef {
        NodeRef(self.right.load(Ordering::Relaxed))
    }

    /// Sets the left child.
    #[inline]
    pub fn set_left(&self, c: NodeRef) {
        self.left.store(c.0, Ordering::Relaxed);
    }

    /// Sets the right child.
    #[inline]
    pub fn set_right(&self, c: NodeRef) {
        self.right.store(c.0, Ordering::Relaxed);
    }

    /// Heap priority.
    #[inline]
    pub fn priority(&self) -> u32 {
        self.priority.load(Ordering::Relaxed)
    }

    /// Sets the priority (initialization only).
    #[inline]
    pub fn set_priority(&self, p: u32) {
        self.priority.store(p, Ordering::Relaxed);
    }

    /// Number of vertex nodes in this subtree.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size.load(Ordering::Relaxed)
    }

    /// Sets the subtree vertex count.
    #[inline]
    pub fn set_size(&self, s: u32) {
        self.size.store(s, Ordering::Relaxed);
    }

    /// The stored endpoints `(a, b)`.
    #[inline]
    pub fn endpoints(&self) -> (u32, u32) {
        (
            self.a.load(Ordering::Relaxed),
            self.b.load(Ordering::Relaxed),
        )
    }

    /// Initializes the stored endpoints.
    #[inline]
    pub fn set_endpoints(&self, a: u32, b: u32) {
        self.a.store(a, Ordering::Relaxed);
        self.b.store(b, Ordering::Relaxed);
    }

    /// If this is a vertex node, returns its vertex id.
    #[inline]
    pub fn vertex(&self) -> Option<u32> {
        let (a, b) = self.endpoints();
        if a == b && a != u32::MAX {
            Some(a)
        } else {
            None
        }
    }

    /// Returns `true` if this node represents a directed Euler-tour edge.
    #[inline]
    pub fn is_edge_node(&self) -> bool {
        let (a, b) = self.endpoints();
        a != b
    }

    // ----- packed flags -----------------------------------------------------

    #[inline]
    fn flag(&self, bit: u8) -> bool {
        self.flags.load(Ordering::Relaxed) & bit != 0
    }

    #[inline]
    fn set_flag(&self, bit: u8, v: bool) {
        // RMW, not load/store: a concurrent `mark_path_upward` may be
        // raising a different bit of the same byte.
        if v {
            self.flags.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.flags.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// Writer-side root flag.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.flag(F_IS_ROOT)
    }

    /// Sets the writer-side root flag.
    #[inline]
    pub fn set_is_root(&self, v: bool) {
        self.set_flag(F_IS_ROOT, v);
    }

    // ----- subtree marks ----------------------------------------------------

    /// Reads the self-contribution of `mark` ("this vertex has adjacent
    /// edges of the relevant kind").
    #[inline]
    pub fn self_mark(&self, mark: Mark) -> bool {
        self.flag(1 << (SELF_SHIFT + mark as u8))
    }

    /// Sets the self-contribution of `mark`.
    #[inline]
    pub fn set_self_mark(&self, mark: Mark, v: bool) {
        self.set_flag(1 << (SELF_SHIFT + mark as u8), v);
    }

    /// Reads the subtree aggregate of `mark`.
    #[inline]
    pub fn agg_mark(&self, mark: Mark) -> bool {
        self.flag(1 << (AGG_SHIFT + mark as u8))
    }

    /// Sets the subtree aggregate of `mark`.
    #[inline]
    pub fn set_agg_mark(&self, mark: Mark, v: bool) {
        self.set_flag(1 << (AGG_SHIFT + mark as u8), v);
    }

    /// Both aggregate-mark bits as a raw mask (merge fast path: lets one
    /// flags load carry the whole "does this subtree contain anything
    /// marked" answer).
    #[inline]
    pub(crate) fn agg_mark_bits(&self) -> u8 {
        self.flags.load(Ordering::Relaxed) & (0b11 << AGG_SHIFT)
    }

    /// The aggregate-mark mask of this node's own self-marks (the bulk
    /// builder ORs it with the children's [`Node::agg_mark_bits`]).
    #[inline]
    pub(crate) fn self_mark_bits_as_agg(&self) -> u8 {
        ((self.flags.load(Ordering::Relaxed) >> SELF_SHIFT) & 0b11) << AGG_SHIFT
    }

    /// Raises the given aggregate-mark bits (a mask from
    /// [`Node::agg_mark_bits`]); skips the RMW when nothing would change.
    #[inline]
    pub(crate) fn raise_agg_mark_bits(&self, bits: u8) {
        if bits != 0 && self.flags.load(Ordering::Relaxed) & bits != bits {
            self.flags.fetch_or(bits, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_cache_compact() {
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn unlinked_node_defaults() {
        let n = Node::new_unlinked();
        assert!(n.parent().is_none());
        assert!(n.left().is_none());
        assert!(n.right().is_none());
        assert_eq!(n.size(), 0);
        assert!(!n.is_root());
        assert_eq!(n.vertex(), None);
        assert!(!n.is_edge_node());
        assert!(!n.self_mark(Mark::NonSpanning));
        assert!(!n.agg_mark(Mark::Spanning));
    }

    #[test]
    fn vertex_and_edge_node_classification() {
        let n = Node::new_unlinked();
        n.set_endpoints(5, 5);
        assert_eq!(n.vertex(), Some(5));
        assert!(!n.is_edge_node());

        let e = Node::new_unlinked();
        e.set_endpoints(3, 9);
        assert_eq!(e.vertex(), None);
        assert!(e.is_edge_node());
        assert_eq!(e.endpoints(), (3, 9));
    }

    #[test]
    fn marks_are_independent() {
        let n = Node::new_unlinked();
        n.set_self_mark(Mark::NonSpanning, true);
        assert!(n.self_mark(Mark::NonSpanning));
        assert!(!n.self_mark(Mark::Spanning));
        n.set_agg_mark(Mark::Spanning, true);
        assert!(n.agg_mark(Mark::Spanning));
        assert!(!n.agg_mark(Mark::NonSpanning));
        // Clearing one bit leaves the others.
        n.set_agg_mark(Mark::Spanning, false);
        assert!(!n.agg_mark(Mark::Spanning));
        assert!(n.self_mark(Mark::NonSpanning));
    }

    #[test]
    fn root_flag_is_independent_of_marks() {
        let n = Node::new_unlinked();
        n.set_is_root(true);
        n.set_self_mark(Mark::Spanning, true);
        assert!(n.is_root());
        n.set_is_root(false);
        assert!(!n.is_root());
        assert!(
            n.self_mark(Mark::Spanning),
            "clearing is_root kept the mark"
        );
    }

    #[test]
    fn parent_and_children_roundtrip() {
        let n = Node::new_unlinked();
        n.set_parent(NodeRef(10));
        n.set_left(NodeRef(11));
        n.set_right(NodeRef(12));
        assert_eq!(n.parent(), NodeRef(10));
        assert_eq!(n.left(), NodeRef(11));
        assert_eq!(n.right(), NodeRef(12));
        n.set_parent(NodeRef::NONE);
        assert!(n.parent().is_none());
    }
}
