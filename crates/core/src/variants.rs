//! The lock-based algorithm variants of the evaluation (numbers 1–8) and the
//! registry that builds any of the thirteen variants by its paper number.
//!
//! | # | Paper name | Construction here |
//! |---|------------|-------------------|
//! | 1 | coarse-grained | [`LockedVariant`]`<GlobalLocking>`, locked reads |
//! | 2 | coarse-grained RW lock | [`CoarseRwVariant`] |
//! | 3 | coarse-grained + non-blocking reads | [`LockedVariant`]`<GlobalLocking>`, lock-free reads |
//! | 4 | coarse-grained + HTM | [`LockedVariant`]`<ElisionLocking>`, locked reads |
//! | 5 | coarse-grained + HTM + non-blocking reads | [`LockedVariant`]`<ElisionLocking>`, lock-free reads |
//! | 6 | fine-grained | [`LockedVariant`]`<FineLocking>`, locked reads |
//! | 7 | fine-grained RW locks | [`FineRwVariant`] |
//! | 8 | fine-grained + non-blocking reads | [`LockedVariant`]`<FineLocking>`, lock-free reads |
//! | 9 | our algorithm (fine-grained + non-blocking reads + non-blocking non-spanning updates) | [`crate::nonblocking::NonBlockingVariant`]`<FineLocking>` |
//! | 10 | our algorithm + coarse-grained | [`crate::nonblocking::NonBlockingVariant`]`<GlobalLocking>` |
//! | 11 | our algorithm + coarse-grained + HTM | [`crate::nonblocking::NonBlockingVariant`]`<ElisionLocking>` |
//! | 12 | parallel combining | [`crate::combining::CombiningVariant`] (parallel reads) |
//! | 13 | non-blocking reads + flat combining | [`crate::combining::CombiningVariant`] (flat combining, lock-free reads) |
//!
//! Beyond the paper, the registry accepts *extension engines* built in
//! higher layers: the `dc_batch` crate registers its batch-parallel engine
//! as number 14 via [`register_batch_builder`], and
//! [`Variant::all_extended`] appends it to the paper's thirteen once
//! registered (the core crate cannot depend on `dc_batch` — the dependency
//! points the other way — so the builder is injected at runtime).

use crate::api::DynamicConnectivity;
use crate::combining::CombiningVariant;
use crate::hdt::Hdt;
use crate::locking::{ElisionLocking, FineLocking, GlobalLocking, GlobalRwLocking, UpdateLocking};
use crate::nonblocking::NonBlockingVariant;
use dc_sync::CombiningMode;
use std::sync::OnceLock;

/// Constructor for an extension engine (see [`register_batch_builder`]).
pub type BatchBuilder = fn(usize) -> Box<dyn DynamicConnectivity>;

static BATCH_BUILDER: OnceLock<BatchBuilder> = OnceLock::new();

/// Registers the builder behind [`Variant::BatchEngine`]. Called once by
/// `dc_batch::register_variant()`; later calls are ignored.
pub fn register_batch_builder(builder: BatchBuilder) {
    let _ = BATCH_BUILDER.set(builder);
}

/// Returns `true` once a [`Variant::BatchEngine`] builder was registered.
pub fn batch_builder_registered() -> bool {
    BATCH_BUILDER.get().is_some()
}

/// A dynamic connectivity structure whose updates run under an
/// [`UpdateLocking`] scheme, with either locked or lock-free reads.
pub struct LockedVariant<L: UpdateLocking> {
    hdt: Hdt,
    locking: L,
    lock_free_reads: bool,
}

impl<L: UpdateLocking> LockedVariant<L> {
    /// Creates the variant over `n` vertices.
    pub fn new(n: usize, locking: L, lock_free_reads: bool) -> Self {
        LockedVariant {
            hdt: Hdt::new(n),
            locking,
            lock_free_reads,
        }
    }

    /// Access to the underlying structure (tests and statistics).
    pub fn hdt(&self) -> &Hdt {
        &self.hdt
    }
}

impl<L: UpdateLocking> DynamicConnectivity for LockedVariant<L> {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.add_edge_locked(u, v);
        });
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.remove_edge_locked(u, v);
        });
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        if self.lock_free_reads {
            self.hdt.connected(u, v)
        } else {
            self.locking
                .with_locked(&self.hdt, u, v, || self.hdt.connected_locked(u, v))
        }
    }

    fn num_vertices(&self) -> usize {
        self.hdt.num_vertices()
    }

    fn read_hint_counters(&self) -> Option<(u64, u64)> {
        let stats = self.hdt.stats();
        Some((stats.read_hint_hits, stats.read_hint_misses))
    }
}

/// Variant 2: a single global readers-writer lock; queries take the read
/// side, updates the write side.
pub struct CoarseRwVariant {
    hdt: Hdt,
    locking: GlobalRwLocking,
}

impl CoarseRwVariant {
    /// Creates the variant over `n` vertices.
    pub fn new(n: usize) -> Self {
        CoarseRwVariant {
            hdt: Hdt::new(n),
            locking: GlobalRwLocking::new(),
        }
    }
}

impl DynamicConnectivity for CoarseRwVariant {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.add_edge_locked(u, v);
        });
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.remove_edge_locked(u, v);
        });
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        u == v || self.locking.with_read(|| self.hdt.connected_locked(u, v))
    }

    fn num_vertices(&self) -> usize {
        self.hdt.num_vertices()
    }

    fn read_hint_counters(&self) -> Option<(u64, u64)> {
        let stats = self.hdt.stats();
        Some((stats.read_hint_hits, stats.read_hint_misses))
    }
}

/// Variant 7: fine-grained readers-writer locks; queries acquire the
/// component locks in shared mode, updates in exclusive mode.
pub struct FineRwVariant {
    hdt: Hdt,
    locking: FineLocking,
}

impl FineRwVariant {
    /// Creates the variant over `n` vertices.
    pub fn new(n: usize) -> Self {
        FineRwVariant {
            hdt: Hdt::new(n),
            locking: FineLocking::new(),
        }
    }
}

impl DynamicConnectivity for FineRwVariant {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.add_edge_locked(u, v);
        });
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.locking.with_locked(&self.hdt, u, v, || {
            self.hdt.remove_edge_locked(u, v);
        });
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        let locked = self.hdt.lock_components_shared(u, v);
        let answer = self.hdt.connected_locked(u, v);
        self.hdt.unlock_components(locked);
        answer
    }

    fn num_vertices(&self) -> usize {
        self.hdt.num_vertices()
    }

    fn read_hint_counters(&self) -> Option<(u64, u64)> {
        let stats = self.hdt.stats();
        Some((stats.read_hint_hits, stats.read_hint_misses))
    }
}

/// Identifies one of the thirteen algorithm combinations of the paper's
/// evaluation (Section 5.2), keeping the paper's numbering.
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
    /// (14) the `dc_batch` batch-parallel engine (beyond the paper): sharded
    /// intake, batch annihilation, combined-pass updates and parallel
    /// post-batch queries. Only buildable after
    /// `dc_batch::register_variant()` injected its constructor.
    BatchEngine,
}

impl Variant {
    /// The thirteen paper variants plus every registered extension engine
    /// (currently [`Variant::BatchEngine`], once `dc_batch` registered it).
    pub fn all_extended() -> Vec<Variant> {
        let mut variants = Self::all().to_vec();
        if batch_builder_registered() {
            variants.push(Variant::BatchEngine);
        }
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
    ///
    /// Note that resolving 14 succeeds whether or not
    /// `dc_batch::register_variant()` has run — only
    /// [`Variant::build`] requires the builder; callers iterating
    /// `(1..=14).filter_map(Variant::by_paper_number)` should gate on
    /// [`batch_builder_registered`] before building number 14.
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
            CoarseRwLock => Box::new(CoarseRwVariant::new(n)),
            CoarseNonBlockingReads => Box::new(LockedVariant::new(n, GlobalLocking::new(), true)),
            CoarseHtm => Box::new(LockedVariant::new(n, ElisionLocking::new(), false)),
            CoarseHtmNonBlockingReads => {
                Box::new(LockedVariant::new(n, ElisionLocking::new(), true))
            }
            FineGrained => Box::new(LockedVariant::new(n, FineLocking::new(), false)),
            FineRwLocks => Box::new(FineRwVariant::new(n)),
            FineNonBlockingReads => Box::new(LockedVariant::new(n, FineLocking::new(), true)),
            OurAlgorithm => Box::new(NonBlockingVariant::new(n, FineLocking::new())),
            OurAlgorithmCoarse => Box::new(NonBlockingVariant::new(n, GlobalLocking::new())),
            OurAlgorithmCoarseHtm => Box::new(NonBlockingVariant::new(n, ElisionLocking::new())),
            ParallelCombining => Box::new(CombiningVariant::new(
                n,
                CombiningMode::ParallelReads,
                false,
            )),
            FlatCombiningNonBlockingReads => {
                Box::new(CombiningVariant::new(n, CombiningMode::FlatCombining, true))
            }
            BatchEngine => BATCH_BUILDER.get().expect(
                "Variant::BatchEngine needs dc_batch::register_variant() called first \
                 (the core crate cannot depend on dc_batch)",
            )(n),
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
        // ...and all_extended only appends it once dc_batch registered its
        // builder — which cannot have happened inside the core crate's own
        // test binary (the dependency points the other way).
        if !batch_builder_registered() {
            assert_eq!(Variant::all_extended(), Variant::all().to_vec());
        } else {
            assert_eq!(Variant::all_extended().last(), Some(&Variant::BatchEngine));
        }
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
