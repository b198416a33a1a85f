//! Trace record/replay differential tests: workloads generated by
//! `dc_workloads` are frozen into binary traces and replayed — sequentially
//! interleaved across their thread streams — against every algorithm
//! variant (the paper's thirteen plus the `dc_batch` engine) next to the
//! BFS oracle. Every `connected` answer must agree, and decoding the same
//! trace twice must yield identical operation sequences.

use concurrent_dynamic_connectivity::{DynamicConnectivity, Variant};
use dc_workloads::{presets, Op, Phase, Topology, Trace, WorkloadSpec};
use dynconn::RecomputeOracle;

/// Replays `trace` against `dc` and the oracle, round-robin across the
/// thread streams (a fixed, deterministic interleaving), asserting query
/// agreement.
fn replay_against_oracle(trace: &Trace, dc: &dyn DynamicConnectivity) {
    let oracle = RecomputeOracle::new(dc.num_vertices());
    for e in &trace.preload {
        dc.add_edge(e.u(), e.v());
        oracle.add_edge(e.u(), e.v());
    }
    let mut cursors: Vec<std::slice::Iter<Op>> =
        trace.per_thread.iter().map(|ops| ops.iter()).collect();
    let mut queries = 0usize;
    loop {
        let mut progressed = false;
        for cursor in &mut cursors {
            if let Some(&op) = cursor.next() {
                progressed = true;
                match op {
                    Op::Add(u, v) => {
                        dc.add_edge(u, v);
                        oracle.add_edge(u, v);
                    }
                    Op::Remove(u, v) => {
                        dc.remove_edge(u, v);
                        oracle.remove_edge(u, v);
                    }
                    Op::Query(u, v) => {
                        assert_eq!(
                            dc.connected(u, v),
                            oracle.connected(u, v),
                            "connected({u}, {v}) diverged from the oracle"
                        );
                        queries += 1;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    assert!(queries > 0, "replay exercised no queries");
}

fn all_fourteen() -> Vec<Variant> {
    let variants = Variant::all_extended();
    assert_eq!(variants.len(), 14);
    assert_eq!(
        (1..=14)
            .filter_map(Variant::by_paper_number)
            .collect::<Vec<_>>(),
        variants,
        "by_paper_number must enumerate the same registry"
    );
    variants
}

#[test]
fn phased_lifecycle_trace_replays_identically_across_all_variants() {
    let topo = Topology::RingOfCliques {
        cliques: 8,
        clique_size: 5,
        extra_bridges: 4,
    };
    let graph = topo.build(31);
    let workload = presets::lifecycle(&graph, 3, 250, 31);
    let bytes = Trace::record(&workload, 31, graph.num_vertices() as u32).to_bytes();

    // Decoding twice yields identical operation sequences (the acceptance
    // guarantee), and the replay agrees with the oracle on every variant.
    let trace = Trace::from_bytes(&bytes).unwrap();
    assert_eq!(trace, Trace::from_bytes(&bytes).unwrap());
    for variant in all_fourteen() {
        let dc = variant.build(graph.num_vertices());
        replay_against_oracle(&trace, dc.as_ref());
    }
}

#[test]
fn zipf_churn_trace_replays_on_powerlaw_topology() {
    let topo = Topology::PowerLaw {
        n: 160,
        m_per_vertex: 3,
    };
    let graph = topo.build(7);
    let workload = WorkloadSpec::new(2, 7)
        .preload(0.5)
        .phase(Phase::new("churn", 800).mix(30, 35, 35).zipf(1.1))
        .generate(&graph);
    let bytes = Trace::record(&workload, 7, graph.num_vertices() as u32).to_bytes();
    let trace = Trace::from_bytes(&bytes).unwrap();
    // A focused subset here (the full sweep runs above): the coarse
    // baseline, the paper's algorithm and the batch engine.
    for number in [1u8, 9, 14] {
        let variant = Variant::by_paper_number(number).unwrap();
        let dc = variant.build(graph.num_vertices());
        replay_against_oracle(&trace, dc.as_ref());
    }
}

#[test]
fn sliding_window_trace_replays_and_drains() {
    let topo = Topology::SlidingWindow {
        n: 120,
        stream_len: 400,
        window: 40,
    };
    let graph = topo.build(13);
    let workload = presets::sliding_window(&graph, 40, 30, 2, 13);
    let trace = Trace::record(&workload, 13, graph.num_vertices() as u32);
    let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
    assert_eq!(trace, back);
    for variant in [Variant::CoarseGrained, Variant::OurAlgorithm] {
        let dc = variant.build(graph.num_vertices());
        replay_against_oracle(&back, dc.as_ref());
        // Per-thread streams drain their windows, and replaying whole
        // streams one after another leaves nothing connected.
        for stream in &back.per_thread {
            let live = stream.iter().fold(0i64, |acc, op| match op {
                Op::Add(..) => acc + 1,
                Op::Remove(..) => acc - 1,
                Op::Query(..) => acc,
            });
            assert_eq!(live, 0, "sliding-window stream must drain");
        }
    }
}

#[test]
fn dsl_specified_workload_replays_against_oracle() {
    let graph = Topology::Grid { rows: 9, cols: 9 }.build(0);
    let spec = WorkloadSpec::parse(
        "preload=0.3; churn 400 r25 a40 d35 z0.9; storm 300 r90 a5 d5",
        2,
        77,
    )
    .unwrap();
    let workload = spec.generate(&graph);
    let trace = Trace::record(&workload, 77, graph.num_vertices() as u32);
    for variant in [Variant::FineNonBlockingReads, Variant::OurAlgorithmCoarse] {
        let dc = variant.build(graph.num_vertices());
        replay_against_oracle(&trace, dc.as_ref());
    }
}
