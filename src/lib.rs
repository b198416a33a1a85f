//! # concurrent-dynamic-connectivity
//!
//! A Rust reproduction of *"A Scalable Concurrent Algorithm for Dynamic
//! Connectivity"* (Alexander Fedorov, Nikita Koval, Dan Alistarh — SPAA '21,
//! arXiv:2105.08098).
//!
//! This facade crate re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — graph types, synthetic generators and dataset loaders;
//! * [`sync`] — the concurrency substrates (sharded map, flat adjacency
//!   store, intake array, raw locks, wait-time accounting);
//! * [`ett`] — the single-writer, multi-reader concurrent Euler Tour Tree
//!   forest (paper Section 3) under every level of the HDT structure;
//! * [`dynconn`] — the HDT-based dynamic connectivity core and all thirteen
//!   algorithm variants of the paper's evaluation (paper Section 4), with
//!   the version-validated root-hint cache that makes repeat queries on
//!   stable components O(1) (`DESIGN.md` §8);
//! * [`batch`] — the batch-parallel operation engine (`dc_batch`): sharded
//!   intake, batch annihilation, combined-pass updates and
//!   snapshot-consistent bulk queries on top of the HDT core (`DESIGN.md`
//!   §5);
//! * [`workloads`] — the scenario subsystem (`dc_workloads`): parameterized
//!   topologies, phased operation-mix workloads with Zipf hot-edge skew,
//!   and a binary trace format for byte-for-byte reproducible replay
//!   (`DESIGN.md` §7);
//! * [`durable`] — crash-safe persistence (`dc_durable`): a group-committed
//!   write-ahead log under the batch engine, atomic checkpoints of the
//!   level structure, torn-tail-tolerant recovery and a fault-injection
//!   harness (`DESIGN.md` §9);
//! * [`faults`] — the cross-layer chaos harness (`dc_faults`): deterministic
//!   seed-driven injection points (leader panics, allocation failures,
//!   intake stalls, delayed epoch advances) plus the observational watchdog
//!   that surfaces stuck leaders and wedged reclamation epochs
//!   (`DESIGN.md` §13).
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Memory model of the level structure
//!
//! The HDT core's per-`(level, vertex)` adjacency multisets live in
//! [`sync::adjacency::AdjacencyStore`]: a flat slab indexed by
//! `level * n + vertex` whose pages materialize lazily on first write, with
//! each edge stored as its far endpoint's id, four ids inline in a 24-byte
//! slot for the common 0–4-edge slots, and striped spinlocks for
//! synchronization.  Consequences readers can rely on:
//!
//! * `Hdt::new(n)` performs O(1) heap allocations for adjacency and builds
//!   only the level-0 forest (upper levels materialize when a promotion
//!   first reaches them), so construction cost is O(n), not O(n log n);
//! * adjacency memory scales with the number of touched `(level, vertex)`
//!   pairs, not with the full `n × levels` grid;
//! * the replacement search iterates adjacency slots through a fixed stack
//!   buffer — no snapshot `Vec` is cloned on the hot paths — with the
//!   best-effort iteration guarantees described in
//!   [`sync::adjacency`]'s module documentation.
//!
//! ```
//! use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
//!
//! let dc = Variant::OurAlgorithm.build(16);
//! dc.add_edge(0, 1);
//! dc.add_edge(1, 2);
//! assert!(dc.connected(0, 2));
//! dc.remove_edge(0, 1);
//! assert!(!dc.connected(0, 2));
//! ```

pub use dc_batch as batch;
pub use dc_durable as durable;
pub use dc_ett as ett;
pub use dc_faults as faults;
pub use dc_graph as graph;
pub use dc_sync as sync;
pub use dc_workloads as workloads;
pub use dynconn;

pub use dc_batch::{BatchEngine, EngineError, Variant, WaitPolicy};
pub use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy};
pub use dc_ett::EulerForest;
pub use dc_graph::{Edge, Graph};
pub use dc_workloads::{Topology, Trace, WorkloadSpec};
pub use dynconn::{
    BatchConnectivity, BatchOp, DynamicConnectivity, Hdt, QueryResult, RecomputeOracle,
};
