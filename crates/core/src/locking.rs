//! Update-locking schemes shared by the algorithm variants.
//!
//! A scheme answers one question: *how does a modification obtain exclusive
//! ownership of the component(s) it touches?*  The paper evaluates three
//! answers — one global lock, one global lock with hardware lock elision,
//! and fine-grained per-component locks (Listing 2) — and combines each with
//! the read-side and non-spanning-edge optimizations, plus the two
//! readers-writer schemes whose queries take a shared lock.  Implementing
//! the schemes behind one trait lets each combination be a thin wrapper.

use crate::hdt::Hdt;
use dc_sync::{waitstats, ElisionLock, RawSpinLock};

/// How update operations serialize against each other.
pub trait UpdateLocking: Send + Sync {
    /// Runs `f` while holding whatever locks cover the components of `u` and
    /// `v`.
    fn with_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R;

    /// Runs the read-only `f` under the locks a locked query takes: the
    /// update locks by default, the shared side of a readers-writer scheme.
    fn with_read_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R {
        self.with_locked(hdt, u, v, f)
    }
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
    lock: ElisionLock,
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

/// A global readers-writer lock (variant 2); updates take the write side,
/// locked queries the read side.
#[derive(Default)]
pub struct GlobalRwLocking {
    lock: dc_sync::RawRwLock,
}

impl GlobalRwLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
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

    fn with_read_locked<R>(&self, _hdt: &Hdt, _u: u32, _v: u32, f: impl FnOnce() -> R) -> R {
        self.lock.read_lock();
        let out = f();
        self.lock.read_unlock();
        out
    }
}

/// Per-component readers-writer locks (variant 7): updates lock their
/// components exclusively like [`FineLocking`], locked queries in shared
/// mode.
#[derive(Default)]
pub struct FineRwLocking;

impl FineRwLocking {
    /// Creates the scheme.
    pub fn new() -> Self {
        FineRwLocking
    }
}

impl UpdateLocking for FineRwLocking {
    fn with_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R {
        FineLocking.with_locked(hdt, u, v, f)
    }

    fn with_read_locked<R>(&self, hdt: &Hdt, u: u32, v: u32, f: impl FnOnce() -> R) -> R {
        let locked = hdt.lock_components_shared(u, v);
        let out = f();
        hdt.unlock_components(locked);
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
    fn fine_rw_locking_write_side_serializes_same_component() {
        exercise(&FineRwLocking::new());
    }

    /// Two threads inside `with_read_locked` on the same component at once:
    /// each waits (up to a deadline) for the other to arrive while holding
    /// its read lock, which an exclusive read side would never allow.
    fn read_side_is_shared<L: UpdateLocking>(scheme: &L) {
        let hdt = Hdt::new(8);
        hdt.add_edge_locked(0, 1);
        let inside = AtomicU64::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let both: Vec<bool> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        scheme.with_read_locked(&hdt, 0, 1, || {
                            inside.fetch_add(1, Ordering::SeqCst);
                            while inside.load(Ordering::SeqCst) < 2 {
                                if std::time::Instant::now() > deadline {
                                    return false;
                                }
                                std::thread::yield_now();
                            }
                            true
                        })
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(both, [true, true], "readers excluded each other");
    }

    #[test]
    fn rw_locking_read_side_is_shared() {
        read_side_is_shared(&GlobalRwLocking::new());
    }

    #[test]
    fn fine_rw_locking_read_side_is_shared() {
        read_side_is_shared(&FineRwLocking::new());
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
