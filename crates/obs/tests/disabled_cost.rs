//! Asserts that disabled observability is *free* in the two ways that
//! matter beyond cycle counts: recording sites must not allocate, and the
//! flight recorder must not buffer a single byte.
//!
//! `dc_obs`'s contract is that every flag-guarded recording entry point —
//! process counters, gauges, spans, events — degenerates to one relaxed
//! flag load when the corresponding flag is off, and that a structure's
//! tally add (always on) is one striped add. A slow path that allocated (a lazily created
//! ring, a formatted label) or that wrote into a ring would make "compiled
//! in but switched off" observably different from "not there", which is
//! exactly what production binaries shipping this crate cannot afford.
//!
//! Proven with a counting `#[global_allocator]`: with both flags off, a
//! dense burst through every public recording entry point performs zero
//! allocations and zero frees and leaves the flight recorder's byte
//! counter untouched. A control pass with tracing enabled then shows the
//! same burst *does* allocate (the ring) and *does* record — so the
//! assertion above is known to be measuring the right thing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The process-wide allocation counter behind [`CountingAlloc`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counters are simple atomics
// with no reentrancy into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Snapshot of `(allocations, frees)` since process start.
fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    )
}

/// A structure's counters, which count whatever the flags say.
static TALLY: dc_obs::Tally = dc_obs::Tally::new();

/// Every public recording entry point, once.
fn record_burst() {
    TALLY.add(dc_obs::Counter::HdtAdditions, 1);
    dc_obs::counter_add(dc_obs::Counter::EpochCollects, 1);
    dc_obs::gauge_set(dc_obs::Gauge::IntakeDepth, 17);
    dc_obs::span_record(dc_obs::SpanId::BatchFlush, 1_000);
    let _span = dc_obs::span(dc_obs::SpanId::ReplacementSearch);
    dc_obs::event(dc_obs::EventKind::Link, 0, dc_obs::pack_edge(1, 2));
    dc_obs::event(dc_obs::EventKind::WalCommit, 7, 512);
}

/// Integration tests share a process; the allocation-sensitive window must
/// not race another test's allocator traffic, so this file holds exactly
/// one `#[test]`.
static GUARD: AtomicUsize = AtomicUsize::new(0);

#[test]
fn disabled_recording_neither_allocates_nor_buffers() {
    assert_eq!(
        GUARD.fetch_add(1, Ordering::Relaxed),
        0,
        "this file must contain exactly one test (see comment above)"
    );
    dc_obs::set_metrics_enabled(false);
    dc_obs::set_tracing_enabled(false);

    // Warm-up: pays any one-time cost the disabled path is allowed to have
    // (there should be none, but the steady state is what the contract is
    // about).
    record_burst();

    let bytes_before = dc_obs::flight::total_bytes_recorded();
    let (allocs_before, frees_before) = counters();
    for _ in 0..10_000 {
        record_burst();
    }
    let (allocs_after, frees_after) = counters();
    assert_eq!(
        (allocs_after - allocs_before, frees_after - frees_before),
        (0, 0),
        "disabled recording entry points allocated"
    );
    assert_eq!(
        dc_obs::flight::total_bytes_recorded(),
        bytes_before,
        "disabled recording wrote into a flight ring"
    );
    assert_eq!(dc_obs::counter_value(dc_obs::Counter::EpochCollects), 0);
    assert_eq!(
        TALLY.get(dc_obs::Counter::HdtAdditions),
        10_001,
        "tallies ignore the flag"
    );
    assert_eq!(dc_obs::span_snapshot(dc_obs::SpanId::BatchFlush).count(), 0);

    // Control: the same burst with tracing on must allocate this thread's
    // ring and record bytes — proving the burst exercises live paths and
    // the zero assertions above were not vacuous.
    dc_obs::set_metrics_enabled(true);
    dc_obs::set_tracing_enabled(true);
    let (allocs_before, _) = counters();
    record_burst();
    let (allocs_after, _) = counters();
    assert!(
        allocs_after > allocs_before,
        "enabling tracing should allocate the thread's ring"
    );
    assert!(dc_obs::flight::total_bytes_recorded() > bytes_before);
    assert!(dc_obs::counter_value(dc_obs::Counter::EpochCollects) > 0);
    dc_obs::set_metrics_enabled(false);
    dc_obs::set_tracing_enabled(false);
}
