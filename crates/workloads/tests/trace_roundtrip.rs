//! Integration tests for the trace format and the phase model: file-level
//! round trips, phase-ratio accuracy across the full preset catalog, and a
//! sequential oracle replay of a recorded trace.

use dc_workloads::{presets, Op, Phase, Topology, Trace, TraceReader, TraceWriter, WorkloadSpec};
use dynconn::locking::FineLocking;
use dynconn::nonblocking::NonBlockingVariant;
use dynconn::{DynamicConnectivity, RecomputeOracle};

#[test]
fn trace_survives_a_file_round_trip() {
    let graph = Topology::PowerLaw {
        n: 120,
        m_per_vertex: 3,
    }
    .build(5);
    let workload = presets::lifecycle(&graph, 2, 150, 5);
    let trace = Trace::record(&workload, 5, graph.num_vertices() as u32);

    let dir = std::env::temp_dir().join(format!("dc_workloads_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lifecycle.dctr");
    trace
        .write_to(std::io::BufWriter::new(
            std::fs::File::create(&path).unwrap(),
        ))
        .unwrap();
    let back =
        Trace::read_from(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(trace, back, "write -> read must yield identical ops");
    assert_eq!(back.meta.seed, 5);
    assert_eq!(back.meta.threads, 2);
}

#[test]
fn streaming_writer_and_reader_agree_with_the_bulk_api() {
    let graph = Topology::Grid { rows: 7, cols: 7 }.build(0);
    let workload = WorkloadSpec::new(3, 21)
        .preload(0.2)
        .phase(Phase::new("mix", 200).mix(40, 30, 30).zipf(0.6))
        .generate(&graph);
    let trace = Trace::record(&workload, 21, graph.num_vertices() as u32);

    // Streaming writer, op by op.
    let mut writer = TraceWriter::new(
        Vec::new(),
        trace.meta.seed,
        trace.meta.vertices,
        trace.meta.threads,
        &trace.preload,
    )
    .unwrap();
    for stream in &trace.per_thread {
        for &op in stream {
            writer.op(op).unwrap();
        }
        writer.end_thread().unwrap();
    }
    let streamed = writer.finish().unwrap();
    assert_eq!(streamed, trace.to_bytes(), "streaming == bulk bytes");

    // Streaming reader: header first, then the body.
    let reader = TraceReader::new(streamed.as_slice()).unwrap();
    assert_eq!(reader.meta().threads, 3);
    assert_eq!(reader.read_trace().unwrap(), trace);
}

#[test]
fn phase_ratios_hold_across_the_preset_catalog() {
    let graph = Topology::ErdosRenyi { n: 400, m: 1200 }.build(9);
    let ratios = |ops: &[Op]| {
        let total = ops.len() as f64;
        let frac = |pred: fn(&Op) -> bool| ops.iter().filter(|o| pred(o)).count() as f64 / total;
        (
            frac(|o| matches!(o, Op::Query(..))),
            frac(|o| matches!(o, Op::Add(..))),
            frac(|o| matches!(o, Op::Remove(..))),
        )
    };

    // random_subset: reads at the requested rate, add/remove balanced.
    let w = presets::random_subset(&graph, 60, 4, 5_000, 2);
    let all: Vec<Op> = w.phases[0].per_thread.iter().flatten().copied().collect();
    let (r, a, d) = ratios(&all);
    assert!((r - 0.60).abs() < 0.02, "reads {r}");
    assert!(
        (a - 0.20).abs() < 0.02 && (d - 0.20).abs() < 0.02,
        "{a}/{d}"
    );

    // lifecycle churn-burst: 10/45/45.
    let w = presets::lifecycle(&graph, 4, 5_000, 2);
    let churn: Vec<Op> = w.phases[1].per_thread.iter().flatten().copied().collect();
    let (r, a, d) = ratios(&churn);
    assert!((r - 0.10).abs() < 0.02, "reads {r}");
    assert!(
        (a - 0.45).abs() < 0.02 && (d - 0.45).abs() < 0.02,
        "{a}/{d}"
    );
}

#[test]
fn recorded_trace_replays_sequentially_against_the_oracle() {
    let graph = Topology::RingOfCliques {
        cliques: 6,
        clique_size: 4,
        extra_bridges: 3,
    }
    .build(17);
    let workload = WorkloadSpec::new(1, 17)
        .preload(0.4)
        .phase(Phase::new("churn", 1_000).mix(30, 35, 35).zipf(0.9))
        .generate(&graph);
    let trace = Trace::record(&workload, 17, graph.num_vertices() as u32);

    let dc = NonBlockingVariant::new(graph.num_vertices(), FineLocking::new());
    let oracle = RecomputeOracle::new(graph.num_vertices());
    for e in &trace.preload {
        dc.add_edge(e.u(), e.v());
        oracle.add_edge(e.u(), e.v());
    }
    for op in &trace.per_thread[0] {
        match *op {
            Op::Add(u, v) => {
                dc.add_edge(u, v);
                oracle.add_edge(u, v);
            }
            Op::Remove(u, v) => {
                dc.remove_edge(u, v);
                oracle.remove_edge(u, v);
            }
            Op::Query(u, v) => assert_eq!(dc.connected(u, v), oracle.connected(u, v)),
        }
    }
}
