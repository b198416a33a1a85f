//! # dc_batch — the batch-parallel operation engine
//!
//! The paper's thirteen variants all serve one operation at a time; under
//! heavy traffic the synchronized HDT is the bottleneck no matter how fast
//! each individual operation is. This crate promotes the flat-combining idea
//! (paper variants 12/13) from a lock-handoff trick into a first-class
//! execution subsystem that *amortizes*:
//!
//! 1. **Sharded intake** ([`dc_sync::IntakeArray`]) — per-thread padded
//!    slots collect concurrently submitted `add_edge` / `remove_edge`
//!    operations into batches.
//! 2. **Annihilation** ([`plan::UpdatePlan`]) — before any tree work,
//!    operations on the same edge dedup to one net intent, insert+delete
//!    pairs cancel outright, and intents matching the current state are
//!    dropped; repeated queries coalesce onto one shared read.
//! 3. **Combined-pass execution** ([`engine::BatchEngine`]) — the surviving
//!    updates go through the HDT in one pass (adds first, then removals),
//!    under a single leader-lock acquisition for the whole batch.
//! 4. **Non-blocking queries** — every query is the HDT's lock-free read:
//!    an adapter `connected` runs on its caller's thread and never waits
//!    for a leader; a bulk batch's query run is answered against the state
//!    at its point of the batch, fanned out over scoped threads when large.
//!
//! Two public doors:
//!
//! * [`BatchConnectivity::apply_batch`] — explicit bulk submission for
//!   bulk-load / offline / bursty-client use, with sequential-equivalence
//!   semantics;
//! * the [`DynamicConnectivity`] adapter — every existing single-op bench
//!   scenario and test runs against the engine unchanged.
//!
//! The crate also owns the variant registry, [`Variant`]: the thirteen
//! paper variants of `dynconn` plus the engine as number 14, buildable by
//! paper number.
//!
//! Fault injection is per engine: [`BatchEngine::attach_chaos`] attaches a
//! `dc_faults` schedule to one instance (see `DESIGN.md` §13).
//!
//! See `DESIGN.md` §5 for the batch lifecycle and the linearizability
//! argument (batch boundaries as linearization points).
//!
//! ```
//! use dc_batch::{BatchConnectivity, BatchEngine, BatchOp};
//!
//! let engine = BatchEngine::new(8);
//! let answers = engine.apply_batch(&[
//!     BatchOp::Add(0, 1),
//!     BatchOp::Add(1, 2),
//!     BatchOp::Query(0, 2),   // answered as of this point: connected
//!     BatchOp::Remove(1, 2),
//!     BatchOp::Query(0, 2),   // now disconnected
//! ]);
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].connected);
//! assert!(!answers[1].connected);
//! ```

pub mod engine;
pub mod plan;
pub mod variants;

pub use engine::{BatchEngine, BatchStats, CommitHook, EngineError};
pub use plan::UpdatePlan;
pub use variants::Variant;

// The wait policy is configured through the engine but lives with the wait
// ladder in `dc_sync`; re-export it so callers need not name both crates.
pub use dc_sync::WaitPolicy;

// Re-export the operation vocabulary so users of this crate need not also
// name `dynconn` for the common path.
pub use dynconn::{BatchConnectivity, BatchOp, DynamicConnectivity, QueryResult};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_extended_variant_supports_basic_operations() {
        for variant in Variant::all_extended() {
            let dc = variant.build(8);
            assert!(!dc.connected(0, 3), "{}", variant.name());
            dc.add_edge(0, 1);
            dc.add_edge(1, 2);
            dc.add_edge(2, 3);
            assert!(dc.connected(0, 3), "{}", variant.name());
            dc.remove_edge(1, 2);
            assert!(!dc.connected(0, 3), "{}", variant.name());
        }
    }
}
