//! The cross-layer chaos soak (`DESIGN.md` §13): seed-driven faults from
//! `dc_faults` — leader panics before apply and after commit, arena
//! allocation failures, intake stalls, delayed epoch advances — thrown at
//! the batch engine, differentially checked against a [`RecomputeOracle`]
//! over every acknowledged operation.
//!
//! What "surviving chaos" means, concretely:
//!
//! * **zero hangs** — every round runs under a hard deadline on a separate
//!   thread; a waiter left spinning on a dead leadership fails the test;
//! * **100% differential agreement** — every acked query answer matches the
//!   oracle, every acked update is reflected (capacity-rejected adds are
//!   drained and excluded on both sides);
//! * **typed failure, never corruption** — after a poisoning panic every
//!   door fails fast with `EngineError::Poisoned` and the poison note names
//!   the injected panic;
//! * **a valid structure at every quiescent point** — `Hdt::validate` runs
//!   every [`VALIDATE_EVERY`] acknowledged operations and at the end of
//!   every round, poisoned or not (the injected panics fire before apply
//!   or after commit, never inside the level structure).
//!
//! The schedules are deterministic (xorshift over the seed, fixed check
//! ordinals), so this soak never flakes: the same faults fire at the same
//! operations on every run.

use concurrent_dynamic_connectivity::faults::{ChaosConfig, ChaosSchedule, InjectionPoint};
use concurrent_dynamic_connectivity::{BatchEngine, EngineError, RecomputeOracle, WaitPolicy};
use dynconn::DynamicConnectivity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 32;
const OPS_PER_ROUND: usize = 500;
/// The soak's seeds: two blocks of sixteen fault schedules.
const SEEDS: [std::ops::RangeInclusive<u64>; 2] = [1..=16, 1001..=1016];
const VALIDATE_EVERY: usize = 50;
const ROUND_DEADLINE: Duration = Duration::from_secs(60);

/// Per-round fault budget: one of each panic (only one can fire — the first
/// poisons the engine), two of everything recoverable.
fn round_schedule(seed: u64) -> Arc<ChaosSchedule> {
    let mut faults = [0u32; InjectionPoint::COUNT];
    faults[InjectionPoint::LeaderPanicBeforeApply as usize] = 1;
    faults[InjectionPoint::LeaderPanicAfterCommit as usize] = 1;
    faults[InjectionPoint::ArenaAlloc as usize] = 2;
    faults[InjectionPoint::IntakeStall as usize] = 2;
    faults[InjectionPoint::EpochAdvanceDelay as usize] = 2;
    Arc::new(ChaosSchedule::from_config(ChaosConfig {
        seed,
        horizon: 120,
        faults_per_point: faults,
        stall: Duration::from_millis(1),
    }))
}

/// Panics raised by chaos injections are expected noise; keep the default
/// hook's backtraces for everything else.
fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.as_str())
                        .unwrap_or("")
                });
            if !msg.contains("chaos injection") {
                default(info);
            }
        }));
    });
}

#[derive(Default)]
struct SoakTally {
    rounds: u64,
    poisons: u64,
    rejections: u64,
    fired: [u64; InjectionPoint::COUNT],
}

/// One seeded round: effective ops through the adapter door, oracle in
/// lockstep, the round's schedule attached to the round's engine.
/// Single-driver on purpose — it makes "the acked prefix" exact, so
/// agreement can be asserted op by op. (Concurrent waiter release is
/// covered by the engine's own tests.)
fn soak_round(seed: u64, tally: &mut SoakTally) {
    let schedule = round_schedule(seed);
    let mut engine = BatchEngine::with_options(N, 64, 2);
    // A bounded wait would only ever fire against a wedged leadership;
    // reaching it is a hang, and the deadline types it out as such.
    engine.set_wait_policy(WaitPolicy::with_deadline(Duration::from_secs(5)));
    engine.attach_chaos(Arc::clone(&schedule));
    let oracle = RecomputeOracle::new(N);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x00dd_ba11).wrapping_add(7));
    let mut poisoned = false;

    for op in 1..=OPS_PER_ROUND {
        let kind = rng.gen_range(0u32..10);
        let outcome: Result<(), EngineError> = if kind < 4 || present.is_empty() {
            // Effective add: an absent, non-loop edge.
            let (u, v) = loop {
                let u = rng.gen_range(0..N as u32);
                let v = rng.gen_range(0..N as u32);
                if u != v && !present.contains(&(u.min(v), u.max(v))) {
                    break (u, v);
                }
            };
            match engine.try_add_edge(u, v) {
                Ok(()) => {
                    let rejected = engine.drain_rejected();
                    tally.rejections += rejected.len() as u64;
                    if rejected.is_empty() {
                        oracle.add_edge(u, v);
                        present.insert((u.min(v), u.max(v)));
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if kind < 7 {
            // Effective remove: a present edge.
            let &(u, v) = present.iter().next().expect("non-empty checked above");
            match engine.try_remove_edge(u, v) {
                Ok(()) => {
                    oracle.remove_edge(u, v);
                    present.remove(&(u, v));
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            let u = rng.gen_range(0..N as u32);
            let v = rng.gen_range(0..N as u32);
            match engine.try_connected(u, v) {
                Ok(answer) => {
                    assert_eq!(
                        answer,
                        oracle.connected(u, v),
                        "seed {seed}: acked query disagrees with the oracle on ({u}, {v})"
                    );
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };
        match outcome {
            // The single driver's operation has been acknowledged, so no
            // batch is in flight: a quiescent point.
            Ok(()) if op % VALIDATE_EVERY == 0 => engine.hdt().validate(),
            Ok(()) => {}
            Err(EngineError::Poisoned) => {
                poisoned = true;
                break;
            }
            Err(EngineError::Timeout) => {
                panic!("seed {seed}: single-driver round hit the wait deadline — a hang")
            }
        }
    }

    if poisoned {
        // Typed, terminal, explained — and fail-fast on every door.
        assert!(engine.is_poisoned());
        let note = engine.poison_note().expect("poison note recorded");
        assert!(note.contains("chaos injection"), "seed {seed}: {note}");
        assert_eq!(engine.try_add_edge(0, 1), Err(EngineError::Poisoned));
        assert_eq!(engine.try_connected(0, 1), Err(EngineError::Poisoned));
        assert_eq!(
            engine.try_apply_batch(&[dynconn::BatchOp::Query(0, 1)]),
            Err(EngineError::Poisoned)
        );
        tally.poisons += 1;
    } else {
        // A round the panics missed: full-universe differential sweep.
        for u in 0..N as u32 {
            for v in (u + 1)..N as u32 {
                assert_eq!(
                    engine.try_connected(u, v),
                    Ok(oracle.connected(u, v)),
                    "seed {seed}: final sweep disagrees on ({u}, {v})"
                );
            }
        }
    }
    engine.hdt().validate();
    for point in InjectionPoint::ALL {
        tally.fired[point as usize] += schedule.fired(point);
    }
    tally.rounds += 1;
}

/// Runs `rounds` on a worker thread under a hard deadline: a hung waiter
/// (the exact failure mode the poison sweep and retract exist to prevent)
/// turns into a loud test failure instead of a wedged CI job.
fn with_deadline(
    label: &'static str,
    rounds: impl FnOnce() -> SoakTally + Send + 'static,
) -> SoakTally {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("chaos-soak-{label}"))
        .spawn(move || {
            let _ = tx.send(rounds());
        })
        .expect("spawn soak thread");
    match rx.recv_timeout(ROUND_DEADLINE) {
        Ok(tally) => tally,
        Err(_) => panic!("{label}: chaos soak exceeded its deadline — hang detected"),
    }
}

#[test]
fn chaos_soak_differential() {
    silence_chaos_panics();

    let tally = with_deadline("rounds", || {
        let mut tally = SoakTally::default();
        for seed in SEEDS.into_iter().flatten() {
            soak_round(seed, &mut tally);
        }
        tally
    });

    let total_fired: u64 = tally.fired.iter().sum();
    let per_point: Vec<String> = InjectionPoint::ALL
        .iter()
        .map(|&p| format!("{}={}", p.name(), tally.fired[p as usize]))
        .collect();
    eprintln!(
        "chaos soak: {} rounds, {} faults fired ({}), {} poisons, {} capacity rejections",
        tally.rounds,
        total_fired,
        per_point.join(", "),
        tally.poisons,
        tally.rejections,
    );

    // The acceptance bar: a real soak, not a smoke — at least 50 injected
    // faults, at least one poisoned round, and every point exercised (an
    // attached schedule that never reaches a point would hide it).
    assert!(total_fired >= 50, "only {total_fired} faults fired");
    assert!(tally.poisons >= 1, "no round was ever poisoned");
    for &point in &[
        InjectionPoint::LeaderPanicBeforeApply,
        InjectionPoint::LeaderPanicAfterCommit,
        InjectionPoint::ArenaAlloc,
        InjectionPoint::IntakeStall,
        InjectionPoint::EpochAdvanceDelay,
    ] {
        assert!(
            tally.fired[point as usize] >= 1,
            "injection point {} never fired",
            point.name()
        );
    }
}
