//! The registry that builds any of the fourteen variants by its paper
//! number: the thirteen algorithm combinations of the paper's evaluation
//! plus this crate's batch engine. It lives here, the lowest crate that can
//! build all fourteen.
//!
//! | # | Paper name | Construction |
//! |---|------------|--------------|
//! | 1 | coarse-grained | [`LockedVariant`]`<GlobalLocking>`, locked reads |
//! | 2 | coarse-grained RW lock | [`LockedVariant`]`<GlobalRwLocking>`, locked reads |
//! | 3 | coarse-grained + non-blocking reads | [`LockedVariant`]`<GlobalLocking>`, lock-free reads |
//! | 4 | coarse-grained + HTM | [`LockedVariant`]`<ElisionLocking>`, locked reads |
//! | 5 | coarse-grained + HTM + non-blocking reads | [`LockedVariant`]`<ElisionLocking>`, lock-free reads |
//! | 6 | fine-grained | [`LockedVariant`]`<FineLocking>`, locked reads |
//! | 7 | fine-grained RW locks | [`LockedVariant`]`<FineRwLocking>`, locked reads |
//! | 8 | fine-grained + non-blocking reads | [`LockedVariant`]`<FineLocking>`, lock-free reads |
//! | 9 | our algorithm (fine-grained + non-blocking reads + non-blocking non-spanning updates) | [`NonBlockingVariant`]`<FineLocking>` |
//! | 10 | our algorithm + coarse-grained | [`NonBlockingVariant`]`<GlobalLocking>` |
//! | 11 | our algorithm + coarse-grained + HTM | [`NonBlockingVariant`]`<ElisionLocking>` |
//! | 12 | parallel combining | [`CombiningVariant`], queries handed back to their threads |
//! | 13 | non-blocking reads + flat combining | [`CombiningVariant`], lock-free reads |
//! | 14 | batch engine (beyond the paper) | [`BatchEngine`](crate::BatchEngine) |

use dynconn::combining::CombiningVariant;
use dynconn::locking::{
    ElisionLocking, FineLocking, FineRwLocking, GlobalLocking, GlobalRwLocking,
};
use dynconn::nonblocking::NonBlockingVariant;
use dynconn::variants::LockedVariant;
use dynconn::DynamicConnectivity;

/// Identifies one of the thirteen algorithm combinations of the paper's
/// evaluation (Section 5.2), keeping the paper's numbering, or the batch
/// engine as number 14.
///
/// ```
/// use dc_batch::{DynamicConnectivity, Variant};
///
/// for variant in Variant::all_extended() {
///     let dc = variant.build(4);
///     dc.add_edge(0, 1);
///     assert!(dc.connected(0, 1), "{}", variant.name());
/// }
/// assert_eq!(Variant::by_paper_number(14), Some(Variant::BatchEngine));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// (1) coarse-grained locking for every operation.
    CoarseGrained,
    /// (2) coarse-grained readers-writer lock.
    CoarseRwLock,
    /// (3) coarse-grained locking with non-blocking reads.
    CoarseNonBlockingReads,
    /// (4) coarse-grained locking with lock elision ("HTM").
    CoarseHtm,
    /// (5) coarse-grained + HTM + non-blocking reads.
    CoarseHtmNonBlockingReads,
    /// (6) fine-grained per-component locking.
    FineGrained,
    /// (7) fine-grained readers-writer locks.
    FineRwLocks,
    /// (8) fine-grained locking with non-blocking reads.
    FineNonBlockingReads,
    /// (9) the paper's full algorithm: fine-grained locking, non-blocking
    /// reads and non-blocking non-spanning edge updates.
    OurAlgorithm,
    /// (10) the full algorithm with coarse-grained locking for spanning
    /// updates.
    OurAlgorithmCoarse,
    /// (11) the full algorithm with coarse-grained locking and HTM.
    OurAlgorithmCoarseHtm,
    /// (12) parallel combining (read-parallel flat combining baseline).
    ParallelCombining,
    /// (13) flat combining for updates plus non-blocking reads.
    FlatCombiningNonBlockingReads,
    /// (14) the [`BatchEngine`](crate::BatchEngine) (beyond the paper): sharded intake, batch
    /// annihilation, combined-pass updates and parallel post-batch queries.
    BatchEngine,
}

impl Variant {
    /// The thirteen paper variants followed by [`Variant::BatchEngine`].
    pub fn all_extended() -> Vec<Variant> {
        let mut variants = Self::all().to_vec();
        variants.push(Variant::BatchEngine);
        variants
    }

    /// All variants in the paper's order.
    pub fn all() -> &'static [Variant] {
        use Variant::*;
        &[
            CoarseGrained,
            CoarseRwLock,
            CoarseNonBlockingReads,
            CoarseHtm,
            CoarseHtmNonBlockingReads,
            FineGrained,
            FineRwLocks,
            FineNonBlockingReads,
            OurAlgorithm,
            OurAlgorithmCoarse,
            OurAlgorithmCoarseHtm,
            ParallelCombining,
            FlatCombiningNonBlockingReads,
        ]
    }

    /// The inverse of [`Variant::paper_number`]: resolves a variant from
    /// its plot number (1–13 are the paper's variants, 14 the batch
    /// engine), or `None` for numbers outside the registry.
    pub fn by_paper_number(number: u8) -> Option<Variant> {
        match number {
            14 => Some(Variant::BatchEngine),
            _ => Variant::all()
                .iter()
                .copied()
                .find(|v| v.paper_number() == number),
        }
    }

    /// The variant number used in the paper's plots.
    pub fn paper_number(&self) -> u8 {
        use Variant::*;
        match self {
            CoarseGrained => 1,
            CoarseRwLock => 2,
            CoarseNonBlockingReads => 3,
            CoarseHtm => 4,
            CoarseHtmNonBlockingReads => 5,
            FineGrained => 6,
            FineRwLocks => 7,
            FineNonBlockingReads => 8,
            OurAlgorithm => 9,
            OurAlgorithmCoarse => 10,
            OurAlgorithmCoarseHtm => 11,
            ParallelCombining => 12,
            FlatCombiningNonBlockingReads => 13,
            BatchEngine => 14,
        }
    }

    /// The label used in the paper's plot legends.
    pub fn name(&self) -> &'static str {
        use Variant::*;
        match self {
            CoarseGrained => "(1) coarse-grained",
            CoarseRwLock => "(2) coarse-grained RW lock",
            CoarseNonBlockingReads => "(3) coarse-grained + non-bl. reads",
            CoarseHtm => "(4) coarse-grained + HTM",
            CoarseHtmNonBlockingReads => "(5) coarse-grained + HTM + non-bl. reads",
            FineGrained => "(6) fine-grained",
            FineRwLocks => "(7) fine-grained RW locks",
            FineNonBlockingReads => "(8) fine-grained + non-bl. reads",
            OurAlgorithm => "(9) our algorithm",
            OurAlgorithmCoarse => "(10) our algorithm + coarse-gr.",
            OurAlgorithmCoarseHtm => "(11) our algorithm + coarse-gr. + HTM",
            ParallelCombining => "(12) parallel combining",
            FlatCombiningNonBlockingReads => "(13) non-bl. reads + flat combining",
            BatchEngine => "(14) batched engine (dc_batch)",
        }
    }

    /// Builds an instance of this variant over `n` vertices.
    pub fn build(&self, n: usize) -> Box<dyn DynamicConnectivity> {
        use Variant::*;
        match self {
            CoarseGrained => Box::new(LockedVariant::new(n, GlobalLocking::new(), false)),
            CoarseRwLock => Box::new(LockedVariant::new(n, GlobalRwLocking::new(), false)),
            CoarseNonBlockingReads => Box::new(LockedVariant::new(n, GlobalLocking::new(), true)),
            CoarseHtm => Box::new(LockedVariant::new(n, ElisionLocking::new(), false)),
            CoarseHtmNonBlockingReads => {
                Box::new(LockedVariant::new(n, ElisionLocking::new(), true))
            }
            FineGrained => Box::new(LockedVariant::new(n, FineLocking::new(), false)),
            FineRwLocks => Box::new(LockedVariant::new(n, FineRwLocking::new(), false)),
            FineNonBlockingReads => Box::new(LockedVariant::new(n, FineLocking::new(), true)),
            OurAlgorithm => Box::new(NonBlockingVariant::new(n, FineLocking::new())),
            OurAlgorithmCoarse => Box::new(NonBlockingVariant::new(n, GlobalLocking::new())),
            OurAlgorithmCoarseHtm => Box::new(NonBlockingVariant::new(n, ElisionLocking::new())),
            ParallelCombining => Box::new(CombiningVariant::new(n, false)),
            FlatCombiningNonBlockingReads => Box::new(CombiningVariant::new(n, true)),
            BatchEngine => Box::new(crate::BatchEngine::new(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_thirteen_variants() {
        assert_eq!(Variant::all().len(), 13);
        let numbers: Vec<u8> = Variant::all().iter().map(|v| v.paper_number()).collect();
        assert_eq!(numbers, (1..=13).collect::<Vec<_>>());
        for v in Variant::all() {
            assert!(v.name().contains(&format!("({})", v.paper_number())));
        }
    }

    #[test]
    fn by_paper_number_inverts_paper_number() {
        for v in Variant::all() {
            assert_eq!(Variant::by_paper_number(v.paper_number()), Some(*v));
        }
        assert_eq!(Variant::by_paper_number(14), Some(Variant::BatchEngine));
        assert_eq!(Variant::by_paper_number(0), None);
        assert_eq!(Variant::by_paper_number(15), None);
    }

    #[test]
    fn batch_engine_is_an_extension_entry() {
        // The paper registry never contains the extension engine...
        assert!(!Variant::all().contains(&Variant::BatchEngine));
        assert_eq!(Variant::BatchEngine.paper_number(), 14);
        assert!(Variant::BatchEngine
            .name()
            .contains(&format!("({})", Variant::BatchEngine.paper_number())));
        // ...and all_extended appends it after the paper's thirteen.
        let all = Variant::all_extended();
        assert_eq!(all.len(), 14);
        assert_eq!(all[..13], *Variant::all());
        assert_eq!(all.last(), Some(&Variant::BatchEngine));
        let dc = Variant::BatchEngine.build(8);
        assert_eq!(dc.num_vertices(), 8);
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        assert!(dc.connected(0, 2));
        dc.remove_edge(1, 2);
        assert!(!dc.connected(0, 2));
    }

    #[test]
    fn every_variant_supports_basic_operations() {
        for variant in Variant::all() {
            let dc = variant.build(8);
            assert_eq!(dc.num_vertices(), 8);
            assert!(!dc.connected(0, 3), "{}", variant.name());
            dc.add_edge(0, 1);
            dc.add_edge(1, 2);
            dc.add_edge(2, 3);
            assert!(dc.connected(0, 3), "{}", variant.name());
            dc.remove_edge(1, 2);
            assert!(!dc.connected(0, 3), "{}", variant.name());
            assert!(dc.connected(0, 1), "{}", variant.name());
            assert!(dc.connected(2, 3), "{}", variant.name());
        }
    }

    #[test]
    fn duplicate_and_self_loop_operations_are_noops() {
        for variant in [Variant::CoarseGrained, Variant::OurAlgorithm] {
            let dc = variant.build(4);
            dc.add_edge(1, 1);
            dc.add_edge(0, 1);
            dc.add_edge(0, 1);
            dc.add_edge(1, 0);
            assert!(dc.connected(0, 1));
            dc.remove_edge(0, 1);
            assert!(!dc.connected(0, 1), "{}", variant.name());
            dc.remove_edge(0, 1);
            dc.remove_edge(2, 3);
        }
    }

    #[test]
    fn replacement_behaviour_is_identical_across_variants() {
        for variant in Variant::all() {
            let dc = variant.build(5);
            dc.add_edge(0, 1);
            dc.add_edge(1, 2);
            dc.add_edge(0, 2);
            dc.remove_edge(0, 1);
            assert!(
                dc.connected(0, 1),
                "{} lost the replacement",
                variant.name()
            );
        }
    }
}
