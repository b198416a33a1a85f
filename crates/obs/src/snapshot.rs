//! Coherent point-in-time snapshots of the whole registry, with
//! Prometheus-text and JSON exporters.
//!
//! A scrape loop (see `examples/streaming_monitor.rs`) gathers one
//! [`ObsSnapshot`] per interval and diffs counters across snapshots;
//! everything is read with relaxed loads, so a snapshot taken mid-traffic
//! is "coherent" in the metrics sense (each cell individually current, no
//! torn u64s) rather than a linearizable cut — the standard contract for
//! monitoring counters.
//!
//! The JSON exporter is the same hand-rolled, dependency-free serializer
//! idiom as `dc_bench::report` (the offline build has no serde); the
//! Prometheus exporter emits the text exposition format: counters as
//! `dc_<name>_total` (a per-structure counter once per gathered tally,
//! labelled `instance="<label>"`), gauges as `dc_<name>`, span histograms as
//! summaries with `quantile` labels.

use crate::histogram::LatencyHistogram;
use crate::metrics::{counter_value, gauge_value, span_snapshot, Counter, Gauge, SpanId, Tally};
use std::fmt::Write;

/// Escapes `s` as a JSON string literal (hand-rolled; the offline build
/// has no serde — the `dc_bench::report` idiom).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A point-in-time copy of the process cells, of the tallies a caller
/// hands over, and of the global wait-accounting counters (pulled from
/// `dc_sync::waitstats`, which sits below this crate in the dependency order
/// and so cannot push).
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    process: [u64; Counter::COUNT],
    /// One `(label, counters)` entry per tally handed to [`ObsSnapshot::gather`].
    instances: Vec<(String, [u64; Counter::COUNT])>,
    gauges: [u64; Gauge::COUNT],
    spans: [LatencyHistogram; SpanId::COUNT],
    /// Total nanoseconds threads spent blocked on instrumented locks
    /// (`dc_sync::waitstats::total_wait_nanos`).
    pub wait_nanos: u64,
    /// Blocking acquisitions recorded (`dc_sync::waitstats::wait_events`).
    pub wait_events: u64,
}

impl ObsSnapshot {
    /// Reads the process counters, gauges and span histograms, the waitstats
    /// globals, and each of `tallies` under its label (one exported series
    /// per label). [`Gauge::EnginePoisoned`] is derived here: the number of
    /// those tallies whose [`Counter::EnginePoisons`] is above 0.
    pub fn gather(tallies: &[(&str, &Tally)]) -> ObsSnapshot {
        let instances: Vec<(String, [u64; Counter::COUNT])> = tallies
            .iter()
            .map(|&(label, tally)| (label.to_string(), Counter::ALL.map(|c| tally.get(c))))
            .collect();
        let mut gauges = Gauge::ALL.map(gauge_value);
        gauges[Gauge::EnginePoisoned as usize] = instances
            .iter()
            .filter(|(_, cells)| cells[Counter::EnginePoisons as usize] > 0)
            .count() as u64;
        ObsSnapshot {
            process: Counter::ALL.map(counter_value),
            instances,
            gauges,
            spans: SpanId::ALL.map(span_snapshot),
            wait_nanos: dc_sync::waitstats::total_wait_nanos(),
            wait_events: dc_sync::waitstats::wait_events(),
        }
    }

    /// Counter `c` summed over the gathered tallies plus the process cells.
    pub fn counter(&self, c: Counter) -> u64 {
        self.process[c as usize]
            + self
                .instances
                .iter()
                .map(|(_, cells)| cells[c as usize])
                .sum::<u64>()
    }

    /// The snapshotted value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// The snapshotted histogram of span `s`.
    pub fn span(&self, s: SpanId) -> &LatencyHistogram {
        &self.spans[s as usize]
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            let name = c.name();
            let _ = writeln!(out, "# TYPE dc_{name}_total counter");
            if c.is_process_level() {
                let _ = writeln!(out, "dc_{name}_total {}", self.process[c as usize]);
                continue;
            }
            for (label, cells) in &self.instances {
                // `Debug` quotes the label and escapes `\`, `"` and newline
                // the way the exposition format asks.
                let _ = writeln!(
                    out,
                    "dc_{name}_total{{instance={label:?}}} {}",
                    cells[c as usize]
                );
            }
        }
        for g in Gauge::ALL {
            let name = g.name();
            let _ = writeln!(out, "# TYPE dc_{name} gauge");
            let _ = writeln!(out, "dc_{name} {}", self.gauge(g));
        }
        let _ = writeln!(out, "# TYPE dc_lock_wait_nanos_total counter");
        let _ = writeln!(out, "dc_lock_wait_nanos_total {}", self.wait_nanos);
        let _ = writeln!(out, "# TYPE dc_lock_wait_events_total counter");
        let _ = writeln!(out, "dc_lock_wait_events_total {}", self.wait_events);
        for s in SpanId::ALL {
            let name = s.name();
            let h = self.span(s);
            let _ = writeln!(out, "# TYPE dc_span_{name}_nanos summary");
            for (q, v) in [
                (0.5, h.p50()),
                (0.9, h.p90()),
                (0.99, h.p99()),
                (0.999, h.p999()),
            ] {
                let _ = writeln!(out, "dc_span_{name}_nanos{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "dc_span_{name}_nanos_count {}", h.count());
        }
        out
    }

    /// Renders the snapshot as a JSON object (counter totals, per-instance
    /// counters, gauges, span percentile summaries, waitstats).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {}",
                json_string(c.name()),
                self.counter(*c)
            );
        }
        out.push_str("\n  },\n  \"instances\": {");
        for (i, (label, cells)) in self.instances.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {{", json_string(label));
            let per_instance = Counter::ALL.iter().filter(|c| !c.is_process_level());
            for (j, c) in per_instance.enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}{}: {}",
                    json_string(c.name()),
                    cells[*c as usize]
                );
            }
            out.push('}');
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {}",
                json_string(g.name()),
                self.gauge(*g)
            );
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, s) in SpanId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let h = self.span(*s);
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                json_string(s.name()),
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
                h.max()
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"lock_wait_nanos\": {},\n  \"lock_wait_events\": {}\n}}\n",
            self.wait_nanos, self.wait_events
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        counter_add, gauge_set, reset, set_metrics_enabled, span_record, tests::TEST_GUARD,
    };

    #[test]
    fn snapshot_reads_back_recorded_values() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        counter_add(Counter::EpochCollects, 3);
        gauge_set(Gauge::ArenaOccupancy, 42);
        span_record(SpanId::CheckpointWrite, 5_000);
        let (a, b) = (Tally::new(), Tally::new());
        a.add(Counter::WalFsyncs, 2);
        b.add(Counter::WalFsyncs, 5);
        b.add(Counter::EnginePoisons, 1);
        let snap = ObsSnapshot::gather(&[("a", &a), ("b", &b)]);
        set_metrics_enabled(false);
        assert_eq!(snap.counter(Counter::EpochCollects), 3);
        assert_eq!(snap.counter(Counter::WalFsyncs), 7);
        assert_eq!(snap.gauge(Gauge::ArenaOccupancy), 42);
        assert_eq!(snap.gauge(Gauge::EnginePoisoned), 1);
        assert_eq!(snap.span(SpanId::CheckpointWrite).count(), 1);
        assert_eq!(snap.span(SpanId::CheckpointWrite).max(), 5_000);
    }

    #[test]
    fn prometheus_export_names_every_metric() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        counter_add(Counter::ChaosInjections, 4);
        let (a, b) = (Tally::new(), Tally::new());
        a.add(Counter::HintHits, 7);
        let snap = ObsSnapshot::gather(&[("a", &a), ("b \"2\"", &b)]);
        set_metrics_enabled(false);
        let text = snap.to_prometheus();
        assert!(text.contains("\ndc_chaos_injections_total 4\n"));
        assert!(text.contains("dc_hint_hits_total{instance=\"a\"} 7\n"));
        assert!(text.contains("dc_hint_hits_total{instance=\"b \\\"2\\\"\"} 0\n"));
        assert!(
            !text.contains("\ndc_hint_hits_total "),
            "no unlabelled per-instance series"
        );
        for c in Counter::ALL {
            assert!(text.contains(&format!("dc_{}_total", c.name())), "{:?}", c);
        }
        for g in Gauge::ALL {
            assert!(text.contains(&format!("\ndc_{} ", g.name())), "{:?}", g);
        }
        for s in SpanId::ALL {
            assert!(
                text.contains(&format!("dc_span_{}_nanos_count", s.name())),
                "{:?}",
                s
            );
        }
        assert!(text.contains("dc_lock_wait_nanos_total"));
    }

    #[test]
    fn json_export_is_well_formed_enough_to_spot_check() {
        let _g = TEST_GUARD.lock();
        set_metrics_enabled(true);
        reset();
        let tally = Tally::new();
        tally.add(Counter::Checkpoints, 2);
        let snap = ObsSnapshot::gather(&[("store", &tally)]);
        set_metrics_enabled(false);
        let json = snap.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"checkpoints\": 2"));
        assert!(json.contains("\"store\": {"));
        assert!(json.contains("\"p999_ns\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }
}
