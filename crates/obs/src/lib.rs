//! `dc_obs` — the observability layer: per-structure counter tallies, the
//! process metrics registry, lock-free flight recorder, and sampled
//! hot-path span profiling.
//!
//! The paper's evaluation reads statistics of one structure (the
//! non-spanning shares of Tables 3/4, the hint hit rate, the *active time
//! rate*); this crate is where that telemetry lives so a *running* instance
//! can be observed outside the bench harness. Three pillars:
//!
//! * [`metrics`] — typed counters, one cell per event. An event that belongs
//!   to a structure is counted in that structure's [`Tally`] (cache-line
//!   striped, always on); the few with no owner, and the gauges and span
//!   histograms, live in static process cells behind one process-wide
//!   enable flag, whose disabled cost is one relaxed load per recording
//!   site. Enabling allocates nothing.
//! * [`flight`] — per-thread fixed-capacity lock-free ring buffers of
//!   compact varint-encoded structural events (links, cuts, replacement
//!   searches, batch flushes, WAL commits, checkpoints, recovery steps),
//!   merged chronologically on demand and dumped automatically when the
//!   durable layer poisons its WAL or refuses recovery.
//! * [`span()`] — 1-in-16 sampled scoped timers on the hot paths
//!   (replacement search, treap merge/split, batch flush, fsync,
//!   interleaved climb groups) feeding the registry histograms.
//!
//! [`ObsSnapshot::gather`] reads the process cells and the tallies it is
//! handed, and exports Prometheus-style text (one labelled series per
//! tally) or JSON. The event taxonomy, memory bounds and the
//! relaxed-ordering safety argument live in `DESIGN.md` §11.
//!
//! This crate sits just above `dc-sync` so every structural crate
//! (`dc-ett`, `dynconn`, `dc-batch`, `dc-durable`) can record into it;
//! mechanisms that live *below* it (waitstats) are pulled at snapshot
//! time instead.

pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod snapshot;
pub mod span;

pub use flight::{auto_dump, dump_events, dump_text, event, pack_edge, EventKind, FlightEvent};
pub use histogram::LatencyHistogram;
pub use metrics::{
    counter_add, counter_value, gauge_set, gauge_value, metrics_enabled, reset,
    set_metrics_enabled, set_tracing_enabled, span_record, span_snapshot, tracing_enabled, Counter,
    Gauge, SpanId, Tally,
};
pub use snapshot::ObsSnapshot;
pub use span::{span, Span, SPAN_SAMPLE_EVERY};
