//! A sliding-window link-failure monitor with live observability.
//!
//! Models the paper's motivating communication-network scenario: a router
//! network whose links flap (fail and recover) over time, while monitoring
//! probes continuously ask "can data-centre A still reach data-centre B?".
//! Probes vastly outnumber link events, which is exactly the read-dominated
//! regime where the paper's non-blocking `connected` shines.
//!
//! On top of the traffic, this example turns on `dc_obs` and runs a
//! *scrape loop* the way a metrics agent would: every interval it gathers
//! an [`dc_obs::ObsSnapshot`] over the structure's tally and prints the
//! structural counters (links, cuts, replacement searches) and sampled span
//! percentiles, live while the links flap. At the end it prints the Prometheus exposition text a
//! real scraper would ingest, plus the tail of the flight recorder — the
//! last structural events, merged chronologically across threads.
//!
//! Run with: `cargo run --release --example streaming_monitor`

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dc_graph::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A road-grid-like backbone: 40x40 grid with most links present.
    let topology = generators::road_network(40, 40, 0.85, true, 7);
    let n = topology.num_vertices();
    println!(
        "topology: {} routers, {} links, density {:.2}",
        n,
        topology.num_edges(),
        topology.density()
    );

    // Observability on: process counters, gauges and spans, and the flight
    // recorder. Both default off; a production binary would flip these from
    // a signal handler or admin endpoint. The structure's own counters (its
    // tally) are always on.
    dc_obs::set_metrics_enabled(true);
    dc_obs::set_tracing_enabled(true);

    let dc: Arc<dyn DynamicConnectivity> = Arc::from(Variant::OurAlgorithm.build(n));
    for link in topology.edges() {
        dc.add_edge(link.u(), link.v());
    }

    // The monitored pairs: opposite corners and a few random long-range pairs.
    let monitored: Vec<(u32, u32)> = vec![
        (0, (n - 1) as u32),
        (39, (n - 40) as u32),
        (20, (n - 21) as u32),
        (800, 801),
    ];

    let stop = Arc::new(AtomicBool::new(false));
    let probes = Arc::new(AtomicU64::new(0));
    let alarms = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Monitoring probes: lock-free connectivity checks.
        for _ in 0..3 {
            let dc = Arc::clone(&dc);
            let stop = Arc::clone(&stop);
            let probes = Arc::clone(&probes);
            let alarms = Arc::clone(&alarms);
            let monitored = monitored.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for &(a, b) in &monitored {
                        if !dc.connected(a, b) {
                            alarms.fetch_add(1, Ordering::Relaxed);
                        }
                        probes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // The scrape loop: what a metrics agent sees while the links flap.
        let stop_s = Arc::clone(&stop);
        let dc_s = Arc::clone(&dc);
        s.spawn(move || {
            let mut scrape = 0u32;
            while !stop_s.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                scrape += 1;
                let tally = dc_s.tally().expect("an HDT-backed variant");
                let snap = dc_obs::ObsSnapshot::gather(&[("monitor", tally)]);
                println!(
                    "scrape {scrape}: links={} cuts={} replacements={} hint_hits={} \
                     hint_invalidations={}",
                    snap.counter(dc_obs::Counter::HdtAdditions),
                    snap.counter(dc_obs::Counter::HdtRemovals),
                    snap.counter(dc_obs::Counter::HdtReplacementsFound),
                    snap.counter(dc_obs::Counter::HintHits),
                    snap.counter(dc_obs::Counter::HintInvalidations),
                );
                let search = snap.span(dc_obs::SpanId::ReplacementSearch);
                if search.count() > 0 {
                    println!(
                        "  replacement search (sampled n={}): p50={}ns p99={}ns max={}ns",
                        search.count(),
                        search.p50(),
                        search.p99(),
                        search.max()
                    );
                }
            }
        });

        // The event stream: links flap in a sliding window. Each round takes
        // a window of links down and brings the previous window back up.
        let dc_w = Arc::clone(&dc);
        let stop_w = Arc::clone(&stop);
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xF1A9);
            let links = topology.edges();
            let window = 64;
            let mut down: Vec<usize> = Vec::new();
            for round in 0..200 {
                // Recover the links that failed last round.
                for &i in &down {
                    let l = links[i];
                    dc_w.add_edge(l.u(), l.v());
                }
                down.clear();
                // Fail a fresh window of random links.
                for _ in 0..window {
                    let i = rng.gen_range(0..links.len());
                    let l = links[i];
                    dc_w.remove_edge(l.u(), l.v());
                    down.push(i);
                }
                if round % 50 == 0 {
                    println!("round {round}: {} links currently down", down.len());
                }
            }
            // Final recovery.
            for &i in &down {
                let l = links[i];
                dc_w.add_edge(l.u(), l.v());
            }
            stop_w.store(true, Ordering::Relaxed);
        });
    });

    println!(
        "\nmonitoring finished: {} probes, {} reachability alarms",
        probes.load(Ordering::Relaxed),
        alarms.load(Ordering::Relaxed)
    );
    for &(a, b) in &monitored {
        println!(
            "  pair ({a:>4}, {b:>4}) reachable after recovery: {}",
            dc.connected(a, b)
        );
    }

    // What a Prometheus scrape of this process would return.
    println!("\n--- prometheus exposition ---");
    let tally = dc.tally().expect("an HDT-backed variant");
    print!(
        "{}",
        dc_obs::ObsSnapshot::gather(&[("monitor", tally)]).to_prometheus()
    );

    // The flight recorder's tail: the last structural events, merged
    // chronologically across every thread that recorded.
    let events = dc_obs::dump_events();
    println!(
        "--- flight recorder: last 10 of {} live events ---",
        events.len()
    );
    for e in events.iter().rev().take(10).rev() {
        println!(
            "  t={:>12}ns thread={} {} a={} b={}",
            e.ts_nanos,
            e.thread,
            e.kind.name(),
            e.a,
            e.b
        );
    }
}
