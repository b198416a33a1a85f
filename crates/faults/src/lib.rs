//! Cross-layer chaos harness: deterministic, seed-driven fault injection
//! points plus a lightweight stall watchdog.
//!
//! `dc_durable::fault` proved the pattern for disks: a deterministic
//! schedule decides, per I/O call, whether to fail it, and the differential
//! suite replays recovery against an oracle. This crate generalizes that
//! idea to the *in-process* failure surface — leader panics, allocation
//! failure, stalled threads, delayed reclamation — so the engine layers
//! above `dc_durable` can be soaked the same way (see `DESIGN.md` §13).
//!
//! **Per-instance.** A [`ChaosSchedule`] attaches to one engine
//! (`dc_batch::BatchEngine::attach_chaos`), which forwards the same
//! schedule to the node arena of its level-0 forest. Each schedule keeps
//! its own check ordinals, so two engines in one process never consume
//! each other's faults, and tests need no serialization.
//!
//! **Zero-cost when disabled.** An instrumented site loads its instance's
//! schedule slot and branches: one load and a never-taken branch while no
//! schedule is attached — the exact discipline
//! `dc_obs::metrics_enabled()` established. Production binaries compile
//! the check sites in and never notice them; the chaos soak attaches a
//! schedule and the same binary starts failing on schedule.
//!
//! **Determinism.** A schedule is fully determined by its
//! [`ChaosConfig`]: for every [`InjectionPoint`] the config's seed draws a
//! sorted set of *check ordinals* (the Nth time that point is consulted)
//! at which the point fires. Same seed, same workload interleaving → same
//! faults, which is what lets the soak assert exact differential agreement
//! after every recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub mod watchdog;

pub use watchdog::{Probe, Watchdog, WatchdogHandle};

/// Where a fault can be injected. Discriminants are stable: they are the
/// `a` payload of [`dc_obs::EventKind::ChaosInject`] flight events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum InjectionPoint {
    /// Panic the batch leader after draining the intake but before any
    /// structural update is applied (the batch must be lost in full).
    LeaderPanicBeforeApply = 0,
    /// Panic the batch leader after the commit hook ran (the batch must be
    /// durable: recovery replays it).
    LeaderPanicAfterCommit = 1,
    /// Fail the next arena `try_alloc` with `ArenaExhausted`.
    ArenaAlloc = 2,
    /// Stall an intake publisher for the schedule's stall duration before
    /// its operation is published.
    IntakeStall = 3,
    /// Delay an epoch-reclamation advance by the stall duration.
    EpochAdvanceDelay = 4,
}

impl InjectionPoint {
    /// Number of injection points.
    pub const COUNT: usize = 5;

    /// Every point, in discriminant order.
    pub const ALL: [InjectionPoint; Self::COUNT] = [
        InjectionPoint::LeaderPanicBeforeApply,
        InjectionPoint::LeaderPanicAfterCommit,
        InjectionPoint::ArenaAlloc,
        InjectionPoint::IntakeStall,
        InjectionPoint::EpochAdvanceDelay,
    ];

    /// Stable snake_case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::LeaderPanicBeforeApply => "leader_panic_before_apply",
            InjectionPoint::LeaderPanicAfterCommit => "leader_panic_after_commit",
            InjectionPoint::ArenaAlloc => "arena_alloc",
            InjectionPoint::IntakeStall => "intake_stall",
            InjectionPoint::EpochAdvanceDelay => "epoch_advance_delay",
        }
    }
}

/// Deterministic recipe for a [`ChaosSchedule`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the ordinal draws; everything else equal, the same seed
    /// produces the same schedule.
    pub seed: u64,
    /// Check-ordinal window per point: fire ordinals are drawn uniformly
    /// from `[0, horizon)`. Checks past the horizon never fire.
    pub horizon: u64,
    /// How many times each point fires within the horizon.
    pub faults_per_point: [u32; InjectionPoint::COUNT],
    /// Sleep applied by stall-type points ([`InjectionPoint::IntakeStall`],
    /// [`InjectionPoint::EpochAdvanceDelay`]) when they fire.
    pub stall: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x5eed_c4a0_5dad_beef,
            horizon: 1_000,
            faults_per_point: [1; InjectionPoint::COUNT],
            stall: Duration::from_millis(2),
        }
    }
}

/// xorshift64* — the same tiny deterministic generator the durable fault
/// harness uses; no external RNG needed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A compiled chaos schedule: per-point sorted fire ordinals plus per-point
/// check/fire tallies. Instrumented sites consult it through
/// [`ChaosSchedule::fires`] / [`ChaosSchedule::stall`].
pub struct ChaosSchedule {
    config: ChaosConfig,
    /// Sorted, deduplicated check ordinals at which each point fires.
    hits: [Vec<u64>; InjectionPoint::COUNT],
    /// How many times each point has been consulted.
    checks: [AtomicU64; InjectionPoint::COUNT],
    /// How many times each point has fired.
    fired: [AtomicU64; InjectionPoint::COUNT],
}

impl ChaosSchedule {
    /// Compiles `config` into a schedule. Duplicate draws are collapsed, so
    /// a point may fire slightly fewer than `faults_per_point` times when
    /// the horizon is small relative to the request; [`ChaosSchedule::fired`] reports the
    /// truth.
    pub fn from_config(config: ChaosConfig) -> ChaosSchedule {
        // Spread adjacent seeds apart (splitmix-style multiply) and keep
        // the xorshift state nonzero.
        let mut state = config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x5eed);
        if state == 0 {
            state = 1;
        }
        let hits = InjectionPoint::ALL.map(|p| {
            let mut ords: Vec<u64> = (0..config.faults_per_point[p as usize])
                .map(|_| xorshift(&mut state) % config.horizon.max(1))
                .collect();
            ords.sort_unstable();
            ords.dedup();
            ords
        });
        ChaosSchedule {
            config,
            hits,
            checks: [const { AtomicU64::new(0) }; InjectionPoint::COUNT],
            fired: [const { AtomicU64::new(0) }; InjectionPoint::COUNT],
        }
    }

    /// The recipe this schedule was compiled from.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Consults the schedule for one check of `point`: assigns the next
    /// check ordinal and reports whether this one fires.
    #[inline(never)]
    pub fn fires(&self, point: InjectionPoint) -> bool {
        let ord = self.checks[point as usize].fetch_add(1, Ordering::Relaxed);
        if self.hits[point as usize].binary_search(&ord).is_err() {
            return false;
        }
        let n = self.fired[point as usize].fetch_add(1, Ordering::Relaxed) + 1;
        dc_obs::counter_add(dc_obs::Counter::ChaosInjections, 1);
        dc_obs::event(dc_obs::EventKind::ChaosInject, point as u64, n);
        true
    }

    /// Stall-type check: if `point` fires, sleeps for the schedule's stall
    /// duration and returns `true`.
    #[inline(never)]
    pub fn stall(&self, point: InjectionPoint) -> bool {
        if !self.fires(point) {
            return false;
        }
        std::thread::sleep(self.config.stall);
        true
    }

    /// How many times `point` has been consulted.
    pub fn checks(&self, point: InjectionPoint) -> u64 {
        self.checks[point as usize].load(Ordering::Relaxed)
    }

    /// How many times `point` has fired.
    pub fn fired(&self, point: InjectionPoint) -> u64 {
        self.fired[point as usize].load(Ordering::Relaxed)
    }

    /// Total faults injected across every point.
    pub fn total_fired(&self) -> u64 {
        InjectionPoint::ALL.iter().map(|&p| self.fired(p)).sum()
    }

    /// How many fire ordinals `point` carries (the most it can ever fire).
    pub fn planned(&self, point: InjectionPoint) -> u64 {
        self.hits[point as usize].len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig {
            seed: 42,
            horizon: 100,
            faults_per_point: [3; InjectionPoint::COUNT],
            stall: Duration::from_micros(1),
        };
        let a = ChaosSchedule::from_config(cfg);
        let b = ChaosSchedule::from_config(cfg);
        for p in InjectionPoint::ALL {
            assert_eq!(a.hits[p as usize], b.hits[p as usize]);
            assert!(a.planned(p) >= 1);
        }
        // Different seed moves at least one point's ordinals.
        let c = ChaosSchedule::from_config(ChaosConfig { seed: 43, ..cfg });
        assert!(
            InjectionPoint::ALL
                .iter()
                .any(|&p| a.hits[p as usize] != c.hits[p as usize]),
            "seed change produced an identical schedule"
        );
    }

    #[test]
    fn installed_schedule_fires_exactly_on_its_ordinals() {
        let schedule = ChaosSchedule::from_config(ChaosConfig {
            seed: 7,
            horizon: 50,
            faults_per_point: [5, 0, 0, 0, 0],
            stall: Duration::from_micros(1),
        });
        let expected = schedule.hits[0].clone();
        let fired_at: Vec<u64> = (0..60u64)
            .filter(|_| schedule.fires(InjectionPoint::LeaderPanicBeforeApply))
            .collect();
        assert_eq!(fired_at, expected);
        assert_eq!(
            schedule.fired(InjectionPoint::LeaderPanicBeforeApply),
            expected.len() as u64
        );
        assert_eq!(schedule.total_fired(), expected.len() as u64);
        assert_eq!(schedule.checks(InjectionPoint::LeaderPanicBeforeApply), 60);
        // Points with zero planned faults never fire.
        assert!(!schedule.fires(InjectionPoint::ArenaAlloc));
    }

    #[test]
    fn maybe_stall_sleeps_only_when_fired() {
        let schedule = ChaosSchedule::from_config(ChaosConfig {
            seed: 9,
            horizon: 1,
            faults_per_point: [0, 0, 0, 1, 0],
            stall: Duration::from_millis(1),
        });
        // Ordinal 0 is the only possible hit (horizon 1).
        assert!(schedule.stall(InjectionPoint::IntakeStall));
        assert!(!schedule.stall(InjectionPoint::IntakeStall));
        assert_eq!(schedule.fired(InjectionPoint::IntakeStall), 1);
    }
}
