//! Asserts the bulk read path is allocation-free in steady state.
//!
//! The interleaved engine's whole point is latency: an allocator visit in
//! the middle of a query batch would both perturb the measured tail and
//! make the path's cost depend on global allocator state. The engine
//! therefore resolves everything through a reusable per-thread
//! [`dc_ett::ReadScratch`] (endpoints, memo, raw hint words, pending
//! climbs), and `connected_many_with` with a warmed scratch plus a
//! capacity-warm `out` buffer must not allocate at all.
//!
//! Proven here with a counting `#[global_allocator]`: the first call warms
//! everything up (epoch-domain registration, hint table materialization,
//! scratch and output capacity), then subsequent calls — same size and
//! smaller, hints on and off, every interleave width — are asserted to
//! perform **zero** allocations and **zero** frees.

use dc_ett::EulerForest;
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

/// Integration tests share a process; keep the allocation-sensitive region
/// single-threaded and self-contained so a parallel test cannot bleed
/// counter traffic into the measured window. This file therefore holds
/// exactly one `#[test]`.
static GUARD: AtomicUsize = AtomicUsize::new(0);

#[test]
fn warm_bulk_reads_do_not_allocate() {
    assert_eq!(
        GUARD.fetch_add(1, Ordering::Relaxed),
        0,
        "this file must contain exactly one test (see comment above)"
    );
    let n = 512u32;
    let forest = EulerForest::new(n as usize);
    // A path component plus a separate star, so runs mix roots.
    for v in 0..(n / 2 - 1) {
        forest.link(v, v + 1);
    }
    for v in (n / 2 + 1)..n {
        forest.link(n / 2, v);
    }
    let pairs: Vec<(u32, u32)> = (0..256u32)
        .map(|i| {
            let u = (i * 7) % n;
            let v = (i * 13 + 5) % n;
            (u, v)
        })
        .collect();

    let mut scratch = dc_ett::ReadScratch::new();
    let mut out: Vec<bool> = Vec::new();
    // The reference answers come from the paper's Listing-1 climb: per-pair
    // `connected` with the hint cache off.
    forest.set_read_hints(false);
    let mut expected: Vec<bool> = Vec::new();
    expected.extend(pairs.iter().map(|&(u, v)| forest.connected(u, v)));

    // Warm-up: materializes the hint table, registers this thread with the
    // epoch domain, grows scratch and `out` to capacity — all the one-time
    // costs the steady state is allowed to have paid once.
    for &hints in &[true, false] {
        forest.set_read_hints(hints);
        for width in [1usize, 8, dc_ett::MAX_INTERLEAVE_WIDTH] {
            forest.set_interleave_width(width);
            out.clear();
            forest.connected_many_with(&pairs, &mut scratch, &mut out);
            assert_eq!(out, expected);
        }
    }

    // Steady state: full-size and smaller runs, every configuration —
    // zero allocator traffic.
    for &hints in &[true, false] {
        forest.set_read_hints(hints);
        for width in [1usize, 8, dc_ett::MAX_INTERLEAVE_WIDTH] {
            forest.set_interleave_width(width);
            for take in [pairs.len(), 64, 4] {
                out.clear();
                let (allocs_before, frees_before) = counters();
                forest.connected_many_with(&pairs[..take], &mut scratch, &mut out);
                let (allocs_after, frees_after) = counters();
                assert_eq!(
                    (allocs_after - allocs_before, frees_after - frees_before),
                    (0, 0),
                    "warm bulk read allocated (w={width}, hints={hints}, {take} pairs)"
                );
                assert_eq!(out, expected[..take], "(w={width}, hints={hints})");
            }
        }
    }
}
