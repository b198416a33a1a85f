//! The lock-based algorithm variants of the evaluation (numbers 1–8):
//! [`LockedVariant`] over an [`UpdateLocking`] scheme, plus the two
//! readers-writer-lock variants [`CoarseRwVariant`] and [`FineRwVariant`].
//! The registry that builds any variant by its paper number is
//! `dc_batch::Variant`: it lives in the lowest crate that can build all
//! fourteen, the batch engine included.

use crate::api::DynamicConnectivity;
use crate::hdt::Hdt;
use crate::locking::{FineLocking, GlobalRwLocking, UpdateLocking};

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

    fn tally(&self) -> Option<&dc_obs::Tally> {
        Some(self.hdt.tally())
    }

    fn set_read_hints(&self, enabled: bool) {
        self.hdt.set_read_hints(enabled);
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

    fn tally(&self) -> Option<&dc_obs::Tally> {
        Some(self.hdt.tally())
    }

    fn set_read_hints(&self, enabled: bool) {
        self.hdt.set_read_hints(enabled);
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

    fn tally(&self) -> Option<&dc_obs::Tally> {
        Some(self.hdt.tally())
    }

    fn set_read_hints(&self, enabled: bool) {
        self.hdt.set_read_hints(enabled);
    }
}
