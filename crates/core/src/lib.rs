//! Concurrent dynamic connectivity.
//!
//! This crate is the heart of the reproduction of *"A Scalable Concurrent
//! Algorithm for Dynamic Connectivity"* (Fedorov, Koval, Alistarh —
//! SPAA '21).  It provides:
//!
//! * the [`DynamicConnectivity`] trait — `add_edge` / `remove_edge` /
//!   `connected` over a fixed vertex set, callable from any number of
//!   threads;
//! * the Holm–de Lichtenberg–Thorup core ([`hdt::Hdt`]) built on
//!   single-writer concurrent Euler Tour Trees, with the level structure,
//!   replacement search and sampling heuristic of the sequential algorithm;
//! * all thirteen algorithm combinations evaluated in the paper
//!   ([`variants`], [`nonblocking`], [`combining`]), from coarse-grained
//!   locking to the full algorithm with fine-grained per-component locks,
//!   non-blocking reads and lock-free non-spanning edge updates (the
//!   registry that builds them by paper number, batch engine included, is
//!   `dc_batch::Variant`);
//! * baselines and oracles used by the tests and the benchmark harness
//!   ([`baseline`]).
//!
//! # Quick start
//!
//! ```
//! use dynconn::locking::FineLocking;
//! use dynconn::nonblocking::NonBlockingVariant;
//! use dynconn::DynamicConnectivity;
//!
//! // Build the paper's full algorithm (variant 9) over 100 vertices.
//! let dc = NonBlockingVariant::new(100, FineLocking::new());
//! dc.add_edge(1, 2);
//! dc.add_edge(2, 3);
//! assert!(dc.connected(1, 3));
//! dc.remove_edge(2, 3);
//! assert!(!dc.connected(1, 3));
//! ```

pub mod api;
pub mod baseline;
pub mod combining;
pub mod hdt;
pub mod locking;
pub mod nonblocking;
pub mod state;
pub mod variants;

pub use api::{
    sequential_apply_batch, BatchConnectivity, BatchOp, DynamicConnectivity, QueryResult,
};
pub use baseline::{RecomputeOracle, UnionFind};
pub use dc_ett::ArenaExhausted;
pub use hdt::{Hdt, StatsSnapshot};
pub use state::{EdgeState, Status};
