//! The lock-based algorithm variants of the evaluation (numbers 1–8):
//! [`LockedVariant`] over an [`UpdateLocking`] scheme. The readers-writer
//! variants 2 and 7 are its locked-read instances over
//! [`GlobalRwLocking`](crate::locking::GlobalRwLocking) and
//! [`FineRwLocking`](crate::locking::FineRwLocking).
//! The registry that builds any variant by its paper number is
//! `dc_batch::Variant`: it lives in the lowest crate that can build all
//! fourteen, the batch engine included.

use crate::api::DynamicConnectivity;
use crate::hdt::Hdt;
use crate::locking::UpdateLocking;

/// A dynamic connectivity structure whose updates run under an
/// [`UpdateLocking`] scheme, with either locked reads (under
/// [`UpdateLocking::with_read_locked`]) or lock-free reads.
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
                .with_read_locked(&self.hdt, u, v, || self.hdt.connected_locked(u, v))
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
