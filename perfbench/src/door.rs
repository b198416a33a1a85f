//! The public doors the clients call, behind one small trait so the client
//! loops are shared. Each door reports the library's typed failures as a
//! [`Fail`] instead of panicking.

use dc_batch::EngineError;
use dc_durable::DurableConnectivity;
use dynconn::locking::FineLocking;
use dynconn::nonblocking::NonBlockingVariant;
use dynconn::{DynamicConnectivity, Hdt};

/// Why an operation did not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// The bounded intake wait expired; the operation had no effect.
    Timeout,
    /// The store is poisoned; the run ends.
    Poisoned,
}

impl From<EngineError> for Fail {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Timeout => Fail::Timeout,
            EngineError::Poisoned => Fail::Poisoned,
        }
    }
}

pub trait Door: Sync {
    fn add(&self, u: u32, v: u32) -> Result<(), Fail>;
    fn remove(&self, u: u32, v: u32) -> Result<(), Fail>;
    fn connected(&self, u: u32, v: u32) -> Result<bool, Fail>;
    /// The structure behind the door, for counters and quiescent checks.
    fn hdt(&self) -> &Hdt;
    /// An explicit checkpoint, where the door has one.
    fn checkpoint(&self) -> Result<(), Fail> {
        Ok(())
    }
}

/// Variant 9 of the paper: fine-grained locks, non-blocking reads and
/// non-blocking non-spanning updates.
pub type PaperAlgorithm = NonBlockingVariant<FineLocking>;

impl Door for PaperAlgorithm {
    fn add(&self, u: u32, v: u32) -> Result<(), Fail> {
        self.add_edge(u, v);
        Ok(())
    }

    fn remove(&self, u: u32, v: u32) -> Result<(), Fail> {
        self.remove_edge(u, v);
        Ok(())
    }

    fn connected(&self, u: u32, v: u32) -> Result<bool, Fail> {
        Ok(DynamicConnectivity::connected(self, u, v))
    }

    fn hdt(&self) -> &Hdt {
        NonBlockingVariant::hdt(self)
    }
}

/// The durable store's single-op adapter; the typed doors of its engine are
/// the same adapter with failures returned as values.
impl Door for DurableConnectivity {
    fn add(&self, u: u32, v: u32) -> Result<(), Fail> {
        Ok(self.engine().try_add_edge(u, v)?)
    }

    fn remove(&self, u: u32, v: u32) -> Result<(), Fail> {
        Ok(self.engine().try_remove_edge(u, v)?)
    }

    fn connected(&self, u: u32, v: u32) -> Result<bool, Fail> {
        Ok(self.engine().try_connected(u, v)?)
    }

    fn hdt(&self) -> &Hdt {
        self.engine().hdt()
    }

    fn checkpoint(&self) -> Result<(), Fail> {
        DurableConnectivity::checkpoint(self)
            .map(|_| ())
            .map_err(|_| Fail::Poisoned)
    }
}
