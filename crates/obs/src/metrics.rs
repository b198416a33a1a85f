//! Typed counters, gauges and latency histograms, one cell per event.
//!
//! An event that belongs to a structure (an HDT update, a hint hit, a
//! drained batch, a WAL append) is counted in that structure's [`Tally`],
//! always on: it is what `dynconn::StatsSnapshot` and `dc_batch::BatchStats`
//! read. The few events with no owning structure go to the process cells
//! through [`counter_add`], behind the process-wide metrics flag with the
//! gauges and span histograms: off (the default), each such call is one
//! relaxed load and a branch. Nothing here allocates when enabled.
//!
//! **Ordering.** All cells are `Relaxed`: monotone tallies read at quiescent
//! points, carrying no happens-before obligation any safety argument leans
//! on (`DESIGN.md` §11).
//!
//! **Striping.** A tally holds `COUNTER_STRIPES` 128-byte-aligned copies of
//! its cells, and each thread adds into the copy its round-robin ticket
//! names, so adds from different threads do not share a line. Gauges are
//! last-write-wins words; histograms are fed by 1-in-16 sampled spans.

use crate::histogram::{LatencyHistogram, LATENCY_BUCKETS};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of padded counter stripes (power of two; threads hash onto them).
const COUNTER_STRIPES: usize = 16;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables metric recording into the process cells (process
/// counters, gauges, span histograms). Off by default; flipping it is a
/// plain relaxed store. Tallies ignore it.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Returns `true` if metric recording is enabled — the one load every
/// process-level recording site pays when disabled.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables flight-recorder event capture (see
/// [`crate::flight`]). Independent of the metrics flag so the bench tier
/// can price each layer separately.
pub fn set_tracing_enabled(enabled: bool) {
    if enabled {
        // Anchor event timestamps before the first event is recorded so
        // merged dumps never see a zero-epoch discontinuity.
        crate::flight::anchor_now();
    }
    TRACING_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Returns `true` if flight-recorder capture is enabled.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

macro_rules! metric_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident { $( $(#[$vmeta:meta])* $variant:ident => $text:literal, )+ }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(usize)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Number of variants (the registry's array extent).
            pub const COUNT: usize = [$( $name::$variant, )+].len();

            /// Every variant, in declaration (= storage) order.
            pub const ALL: [$name; Self::COUNT] = [$( $name::$variant, )+];

            /// The stable snake_case name exporters emit.
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $text, )+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotone event tallies. Names are the Prometheus metric stems
    /// (exported as `dc_<name>_total`). All but the last four are counted
    /// per structure, in a [`Tally`] (see [`Counter::is_process_level`]).
    pub enum Counter {
        /// Edge additions applied (spanning or not).
        HdtAdditions => "hdt_additions",
        /// Additions that closed a cycle (left the forest unchanged).
        HdtNonSpanningAdditions => "hdt_non_spanning_additions",
        /// Edge removals applied.
        HdtRemovals => "hdt_removals",
        /// Removals of non-spanning edges (no replacement search needed).
        HdtNonSpanningRemovals => "hdt_non_spanning_removals",
        /// Replacement searches that found a substitute edge.
        HdtReplacementsFound => "hdt_replacements_found",
        /// Replacement-search levels whose sample pass spent its budget
        /// before its walk ended, and so fell back to promote + full scan
        /// (DESIGN.md §15).
        HdtSampleBudgetsSpent => "hdt_sample_budgets_spent",
        /// Spanning and non-spanning edges moved up one level by a
        /// replacement search's promotion step or full scan.
        HdtPromotions => "hdt_promotions",
        /// Read resolutions answered from a validated root hint.
        HintHits => "hint_hits",
        /// Read resolutions that fell back to a parent-pointer climb.
        HintMisses => "hint_misses",
        /// Root-version bumps on a forest that holds hints (each invalidates
        /// that root's outstanding hints — DESIGN.md §8).
        HintInvalidations => "hint_invalidations",
        /// Update batches drained from the intake by a `dc_batch` leader.
        BatchesDrained => "batches_drained",
        /// Batches applied through the bulk door.
        BatchBulkBatches => "batch_bulk_batches",
        /// Updates submitted to a batch engine (before preprocessing).
        BatchSubmittedUpdates => "batch_submitted_updates",
        /// Structural updates applied by batch flushes (post-annihilation).
        BatchUpdatesApplied => "batch_updates_applied",
        /// Queries submitted through the bulk door.
        BatchSubmittedQueries => "batch_submitted_queries",
        /// Duplicate bulk-door queries answered by one shared read.
        BatchCoalescedQueries => "batch_coalesced_queries",
        /// Adapter updates whose first try for the leader lock failed: they
        /// queued behind another caller's batch.
        BatchQueuedUpdates => "batch_queued_updates",
        /// Additions rejected with a typed capacity error (arena exhaustion
        /// surfaced through `try_link` instead of an abort).
        CapacityRejections => "capacity_rejections",
        /// Batch engines poisoned by a leader panic (DESIGN.md §13).
        EnginePoisons => "engine_poisons",
        /// Bounded waits that expired before their condition held
        /// (`EngineError::Timeout` returned to a caller).
        WaitTimeouts => "wait_timeouts",
        /// Batch records group-committed to the WAL.
        WalBatches => "wal_batches",
        /// Bytes appended to the WAL (records + commit markers).
        WalBytes => "wal_bytes",
        /// `fsync`/`sync_data` calls issued by the WAL.
        WalFsyncs => "wal_fsyncs",
        /// WAL segment rolls.
        WalSegmentRolls => "wal_segment_rolls",
        /// Checkpoints written.
        Checkpoints => "checkpoints",
        /// Epoch-reclamation collection passes over an ETT arena.
        EpochCollects => "epoch_collects",
        /// Arena nodes recycled by those passes.
        EpochNodesReclaimed => "epoch_nodes_reclaimed",
        /// Stall conditions flagged by a watchdog probe (stuck leader,
        /// stalled epoch advance).
        WatchdogStalls => "watchdog_stalls",
        /// Chaos-schedule injection points that actually fired.
        ChaosInjections => "chaos_injections",
    }
}

impl Counter {
    /// Whether `self` has no owning structure and is counted in the process
    /// cells ([`counter_add`], behind the metrics flag) rather than in a
    /// [`Tally`]. Those counters are declared last, from `EpochCollects` on.
    pub fn is_process_level(self) -> bool {
        self as usize >= Counter::EpochCollects as usize
    }
}

metric_enum! {
    /// Last-write-wins instantaneous values.
    pub enum Gauge {
        /// Live ETT arena slots at the last reclamation pass (level 0).
        ArenaOccupancy => "arena_occupancy",
        /// Operations claimed from the intake array by the most recent
        /// batch leader (the drained batch's size).
        IntakeDepth => "intake_depth",
        /// How many of the tallies a snapshot was handed count an engine
        /// poison; derived at gather time, never set. Service health checks
        /// scrape this.
        EnginePoisoned => "engine_poisoned",
        /// Number of watchdog probes currently reporting a stall (returns
        /// to 0 when progress resumes).
        WatchdogStalledProbes => "watchdog_stalled_probes",
    }
}

metric_enum! {
    /// Span-profiled hot paths; each feeds one registry histogram of
    /// sampled durations in nanoseconds.
    pub enum SpanId {
        /// HDT replacement-edge search after a spanning-edge cut.
        ReplacementSearch => "replacement_search",
        /// Treap merge (iterative root merge on the tour sequence).
        TreapMerge => "treap_merge",
        /// Treap split (before/after a tour position).
        TreapSplit => "treap_split",
        /// Batch engine plan flush (compaction + apply + commit hook).
        BatchFlush => "batch_flush",
        /// WAL fsync/sync_data call.
        WalFsync => "wal_fsync",
        /// Checkpoint serialization + atomic install.
        CheckpointWrite => "checkpoint_write",
        /// One interleaved bulk-read climb group (DESIGN.md §10).
        InterleavedClimbGroup => "interleaved_climb_group",
    }
}

/// A padded block of counter cells: one cell per [`Counter`], no cache
/// line shared with any other stripe.
#[repr(align(128))]
struct CounterStripe {
    cells: [AtomicU64; Counter::COUNT],
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stripe ticket, assigned round-robin on first
    /// use so worker pools spread evenly.
    static STRIPE: usize =
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (COUNTER_STRIPES - 1);
}

/// One cell per [`Counter`], striped across threads: the counters of one
/// structure (or, for the process cells, of none). See the module docs.
pub struct Tally {
    stripes: [CounterStripe; COUNTER_STRIPES],
}

impl Tally {
    /// An all-zero tally.
    pub const fn new() -> Tally {
        Tally {
            stripes: [const {
                CounterStripe {
                    cells: [const { AtomicU64::new(0) }; Counter::COUNT],
                }
            }; COUNTER_STRIPES],
        }
    }

    /// Adds `n` to counter `c`: one relaxed add on the calling thread's
    /// stripe.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        STRIPE.with(|&s| self.stripes[s].cells[c as usize].fetch_add(n, Ordering::Relaxed));
    }

    /// The current value of counter `c` (summed over the stripes).
    pub fn get(&self, c: Counter) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.cells[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for stripe in &self.stripes {
            for cell in &stripe.cells {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Default for Tally {
    fn default() -> Tally {
        Tally::new()
    }
}

/// A shared atomic-bucket histogram, bucket-compatible with
/// [`LatencyHistogram`] so snapshots are a plain relaxed sweep.
struct AtomicHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    max: AtomicU64,
}

/// The process cells: counters with no owning structure.
static PROCESS: Tally = Tally::new();

static GAUGES: [AtomicU64; Gauge::COUNT] = [const { AtomicU64::new(0) }; Gauge::COUNT];

static HISTOGRAMS: [AtomicHistogram; SpanId::COUNT] = [const {
    AtomicHistogram {
        buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
        max: AtomicU64::new(0),
    }
}; SpanId::COUNT];

/// Adds `n` to process-level counter `c` (see
/// [`Counter::is_process_level`]). One relaxed load + branch when disabled.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    debug_assert!(c.is_process_level(), "{c:?} is counted in a Tally");
    if metrics_enabled() && n > 0 {
        PROCESS.add(c, n);
    }
}

/// Sets gauge `g` to `v` (last write wins across threads).
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if metrics_enabled() {
        GAUGES[g as usize].store(v, Ordering::Relaxed);
    }
}

/// Records a sampled duration of `ns` nanoseconds into span `id`'s
/// histogram. Callers go through [`crate::span()`], which applies the 1-in-N
/// sampling and the enabled check; this low-level door re-checks the flag
/// so direct callers stay free when disabled.
#[inline]
pub fn span_record(id: SpanId, ns: u64) {
    if !metrics_enabled() {
        return;
    }
    let h = &HISTOGRAMS[id as usize];
    h.buckets[LatencyHistogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    h.max.fetch_max(ns, Ordering::Relaxed);
}

/// Current value of process-level counter `c`.
pub fn counter_value(c: Counter) -> u64 {
    PROCESS.get(c)
}

/// Current value of gauge `g`.
pub fn gauge_value(g: Gauge) -> u64 {
    GAUGES[g as usize].load(Ordering::Relaxed)
}

/// Snapshot of span `id`'s histogram as a plain [`LatencyHistogram`].
pub fn span_snapshot(id: SpanId) -> LatencyHistogram {
    let h = &HISTOGRAMS[id as usize];
    let mut buckets = [0u64; LATENCY_BUCKETS];
    for (out, cell) in buckets.iter_mut().zip(h.buckets.iter()) {
        *out = cell.load(Ordering::Relaxed);
    }
    LatencyHistogram::from_parts(buckets, h.max.load(Ordering::Relaxed))
}

/// Zeroes every process counter, gauge and histogram (bench cells and tests
/// reset between measurement intervals; concurrent recorders just land in
/// the new interval). Tallies belong to their structures and are untouched.
pub fn reset() {
    PROCESS.reset();
    for g in GAUGES.iter() {
        g.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS.iter() {
        for b in h.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        h.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use parking_lot::Mutex;

    // The registry is global; tests that mutate it must serialize.
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(false);
        reset();
        counter_add(Counter::EpochCollects, 5);
        gauge_set(Gauge::IntakeDepth, 9);
        span_record(SpanId::BatchFlush, 1234);
        assert_eq!(counter_value(Counter::EpochCollects), 0);
        assert_eq!(gauge_value(Gauge::IntakeDepth), 0);
        assert_eq!(span_snapshot(SpanId::BatchFlush).count(), 0);
    }

    #[test]
    fn counters_accumulate_across_threads_and_stripes() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        counter_add(Counter::ChaosInjections, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| counter_add(Counter::ChaosInjections, 3));
            }
        });
        assert_eq!(counter_value(Counter::ChaosInjections), 14);
        set_metrics_enabled(false);

        // A tally counts with the flag off, and only into itself.
        let (tally, other) = (Tally::new(), Tally::new());
        tally.add(Counter::HintHits, 2);
        tally.add(Counter::HintMisses, 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| tally.add(Counter::HintHits, 3));
            }
        });
        assert_eq!(tally.get(Counter::HintHits), 14);
        assert_eq!(tally.get(Counter::HintMisses), 1);
        assert_eq!(other.get(Counter::HintHits), 0);
        assert_eq!(counter_value(Counter::HintHits), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        gauge_set(Gauge::ArenaOccupancy, 10);
        gauge_set(Gauge::ArenaOccupancy, 7);
        assert_eq!(gauge_value(Gauge::ArenaOccupancy), 7);
        set_metrics_enabled(false);
    }

    #[test]
    fn span_histograms_snapshot_and_reset() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        span_record(SpanId::WalFsync, 100);
        span_record(SpanId::WalFsync, 10_000);
        let snap = span_snapshot(SpanId::WalFsync);
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), 10_000);
        assert!(snap.p50() >= 100);
        reset();
        assert_eq!(span_snapshot(SpanId::WalFsync).count(), 0);
        set_metrics_enabled(false);
    }

    #[test]
    fn only_ownerless_counters_are_process_level() {
        let process: Vec<Counter> = Counter::ALL
            .into_iter()
            .filter(|c| c.is_process_level())
            .collect();
        assert_eq!(
            process,
            [
                Counter::EpochCollects,
                Counter::EpochNodesReclaimed,
                Counter::WatchdogStalls,
                Counter::ChaosInjections
            ]
        );
    }

    #[test]
    fn enum_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(SpanId::ALL.iter().map(|s| s.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
