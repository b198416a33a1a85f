//! Single-writer, multi-reader concurrent Euler Tour Trees.
//!
//! This crate implements Section 3 of *"A Scalable Concurrent Algorithm for
//! Dynamic Connectivity"* (Fedorov, Koval, Alistarh — SPAA '21): an Euler
//! Tour Tree forest whose `connected` / `find_root` queries are lock-free and
//! linearizable while a single writer (per component) performs `link` and
//! `cut` operations.
//!
//! # Highlights
//!
//! * Structural operations are split into a **logical** part (a single store
//!   that acts as the linearization point) and a **physical** part (treap
//!   restructuring that never exposes out-of-thin-air components to readers).
//! * Roots carry **versions**; the triple re-check protocol of the paper's
//!   Listing 1 makes `connected(u, v)` linearizable even though the version
//!   may be one step ahead of the structure.
//! * Spanning-edge removals can be **prepared** (physically split) before
//!   being **committed** (logically split), which is what lets the dynamic
//!   connectivity layer search for a replacement edge without readers ever
//!   observing a transiently disconnected component.
//! * A per-vertex **root-hint cache** ([`hints`]) makes repeat queries on
//!   stable components O(1): a validated `(root, version)` snapshot answers
//!   `connected` with a handful of loads and no tree traversal, falling
//!   back to the climbing protocol (which refreshes the hint) whenever the
//!   component changed.
//!
//! # Example
//!
//! ```
//! use dc_ett::EulerForest;
//!
//! let forest = EulerForest::new(4);
//! assert!(!forest.connected(0, 3));
//! forest.link(0, 1);
//! forest.link(1, 2);
//! forest.link(2, 3);
//! assert!(forest.connected(0, 3));
//! forest.cut(1, 2);
//! assert!(!forest.connected(0, 3));
//! assert!(forest.connected(0, 1));
//! assert!(forest.connected(2, 3));
//! ```

pub mod arena;
pub mod forest;
pub mod hints;
pub mod node;
mod treap;

pub use arena::{ArenaExhausted, NodeRef};
pub use forest::{EulerForest, PreparedCut, ReadScratch, MAX_INTERLEAVE_WIDTH};
pub use hints::HintCache;
pub use node::{Mark, Node};
