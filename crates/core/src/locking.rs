//! Update-locking schemes shared by the algorithm variants.
//!
//! A scheme answers one question: *how does a modification obtain exclusive
//! ownership of the component(s) it touches?*  The paper evaluates three
//! answers — one global lock, one global lock with hardware lock elision,
//! and fine-grained per-component locks (Listing 2) — and combines each with
//! the read-side and non-spanning-edge optimizations.  Implementing the
//! schemes behind one trait lets each combination be a thin wrapper.

use crate::hdt::Hdt;
use dc_sync::{waitstats, ElisionLock, RawSpinLock};

/// How update operations serialize against each other.
pub trait UpdateLocking: Send + Sync {
    /// Runs `f` while holding whatever locks cover the components of `u` and
    /// `v`.
    fn with_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R;
}

/// One global lock serializing all updates (coarse-grained locking).
#[derive(Default)]
pub struct GlobalLocking {
    lock: RawSpinLock,
}

impl GlobalLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateLocking for GlobalLocking {
    fn with_locked<R>(&self, _hdt: &Hdt, _u: u32, _v: u32, f: impl FnOnce() -> R) -> R {
        self.lock.lock();
        let out = f();
        self.lock.unlock();
        out
    }
}

/// One global lock accessed through the lock-elision emulation (the "HTM"
/// variants; see `DESIGN.md` §4 for the substitution).
#[derive(Default)]
pub struct ElisionLocking {
    lock: ElisionLock<()>,
}

impl ElisionLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateLocking for ElisionLocking {
    fn with_locked<R>(&self, _hdt: &Hdt, _u: u32, _v: u32, f: impl FnOnce() -> R) -> R {
        let guard = self.lock.lock();
        let out = f();
        drop(guard);
        out
    }
}

/// Per-component locks keyed by the level-0 forest representatives
/// (fine-grained locking, paper Listing 2). The climb–lock–recheck
/// protocol relies on the Euler-tour forest changing a component's
/// representative at most once per structural operation, at its
/// linearization store.
#[derive(Default)]
pub struct FineLocking;

impl FineLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        FineLocking
    }
}

impl UpdateLocking for FineLocking {
    fn with_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R {
        let locked = hdt.lock_components(u, v);
        let out = f();
        hdt.unlock_components(locked);
        out
    }
}

/// A global readers-writer lock (coarse-grained RW variant); updates take the
/// write side, queries the read side.
#[derive(Default)]
pub struct GlobalRwLocking {
    lock: dc_sync::RawRwLock,
}

impl GlobalRwLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` under the shared (read) side of the lock.
    pub fn with_read<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock.read_lock();
        let out = f();
        self.lock.read_unlock();
        out
    }
}

impl UpdateLocking for GlobalRwLocking {
    fn with_locked<R>(&self, _hdt: &Hdt, _u: u32, _v: u32, f: impl FnOnce() -> R) -> R {
        let timer = waitstats::WaitTimer::start();
        self.lock.lock();
        timer.finish();
        let out = f();
        self.lock.unlock();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn exercise<L: UpdateLocking>(scheme: &L) {
        let hdt = Hdt::new(8);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        scheme.with_locked(&hdt, 0, 1, || {
                            let v = counter.load(Ordering::Relaxed);
                            counter.store(v + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8_000);
    }

    #[test]
    fn global_locking_is_mutually_exclusive() {
        exercise(&GlobalLocking::new());
    }

    #[test]
    fn elision_locking_is_mutually_exclusive() {
        exercise(&ElisionLocking::new());
    }

    #[test]
    fn rw_locking_write_side_is_mutually_exclusive() {
        exercise(&GlobalRwLocking::new());
    }

    #[test]
    fn fine_locking_serializes_same_component() {
        exercise(&FineLocking::new());
    }

    #[test]
    fn fine_locking_allows_disjoint_components_in_parallel() {
        // Two pairs of vertices in different components: both threads must be
        // able to hold their locks at the same time (we verify no deadlock
        // and correct mutual exclusion per component).
        let hdt = Arc::new(Hdt::new(8));
        hdt.add_edge_locked(0, 1);
        hdt.add_edge_locked(2, 3);
        let scheme = FineLocking::new();
        let c1 = AtomicU64::new(0);
        let c2 = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let hdt = Arc::clone(&hdt);
                let scheme = &scheme;
                let (c1, c2) = (&c1, &c2);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        if t % 2 == 0 {
                            scheme.with_locked(&hdt, 0, 1, || {
                                c1.fetch_add(1, Ordering::Relaxed);
                            });
                        } else {
                            scheme.with_locked(&hdt, 2, 3, || {
                                c2.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        });
        assert_eq!(c1.load(Ordering::Relaxed), 2_000);
        assert_eq!(c2.load(Ordering::Relaxed), 2_000);
    }
}
