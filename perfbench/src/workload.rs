//! The three workloads. Why each exists, and which layers it stresses, is
//! in `README.md` beside this crate.

use dc_graph::{generators, Graph};

/// Which public door the clients call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoorKind {
    /// `NonBlockingVariant<FineLocking>`: the paper's full algorithm.
    InMemory,
    /// `DurableConnectivity` through its single-op adapter.
    Durable,
}

#[derive(Clone, Copy, Debug)]
pub enum GraphShape {
    /// `power_law_communities(count, size, edges_per_vertex)`.
    Communities { count: usize, size: usize, m: usize },
    /// `road_network(side, side, keep)` without the connecting backbone.
    Road { side: usize, keep: f64 },
}

#[derive(Clone, Copy, Debug)]
pub enum QueryShape {
    /// Both endpoints uniform over all vertices.
    Uniform,
    /// `inside_pct` percent of pairs fall inside one community drawn from
    /// a Zipf(`theta`) over the communities; the rest are uniform.
    Community {
        communities: usize,
        size: usize,
        theta: f64,
        inside_pct: u32,
    },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub door: DoorKind,
    pub graph: GraphShape,
    /// Share of the edge universe loaded during setup.
    pub preload: f64,
    /// Closed-loop client threads.
    pub clients: usize,
    pub query_pct: u32,
    pub add_pct: u32,
    /// Consecutive queries timed as one sample (the median per-call time of
    /// a query on `social-read` is below what one clock read can resolve).
    pub group: usize,
    pub queries: QueryShape,
    /// Untimed stream steps per client between setup and measuring, so the
    /// measured phase starts past the first round of HDT promotions.
    pub warmup_steps: usize,
    /// Stream steps per chunk of the traced run (fixed, so its counts repeat).
    pub trace_steps: usize,
}

const COMMUNITY: usize = 4096;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "social-read",
        door: DoorKind::InMemory,
        graph: GraphShape::Communities {
            count: 128,
            size: COMMUNITY,
            m: 3,
        },
        preload: 0.5,
        clients: 2,
        query_pct: 90,
        add_pct: 5,
        group: 16,
        queries: QueryShape::Community {
            communities: 128,
            size: COMMUNITY,
            theta: 0.99,
            inside_pct: 90,
        },
        warmup_steps: 100_000,
        trace_steps: 10_000,
    },
    Workload {
        name: "road-churn",
        door: DoorKind::InMemory,
        graph: GraphShape::Road {
            side: 700,
            keep: 0.9,
        },
        preload: 0.7,
        clients: 1,
        query_pct: 50,
        add_pct: 25,
        group: 1,
        queries: QueryShape::Uniform,
        warmup_steps: 100_000,
        trace_steps: 20_000,
    },
    Workload {
        name: "durable-service",
        door: DoorKind::Durable,
        graph: GraphShape::Communities {
            count: 64,
            size: COMMUNITY,
            m: 3,
        },
        preload: 0.5,
        clients: 2,
        query_pct: 50,
        add_pct: 25,
        group: 1,
        queries: QueryShape::Community {
            communities: 64,
            size: COMMUNITY,
            theta: 0.99,
            inside_pct: 90,
        },
        warmup_steps: 20_000,
        trace_steps: 40_000,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn graph(&self, seed: u64) -> Graph {
        match self.graph {
            GraphShape::Communities { count, size, m } => {
                generators::power_law_communities(count, size, m, seed)
            }
            GraphShape::Road { side, keep } => {
                generators::road_network(side, side, keep, false, seed)
            }
        }
    }

    /// The same workload over a graph of `communities` × `size` vertices
    /// (or a `side` × `side` grid): small enough for `Hdt::validate`, whose
    /// Euler-tour check is quadratic in tree size, and for unit tests.
    pub fn shrunk(&self, communities: usize, size: usize, side: usize) -> Workload {
        let mut w = self.clone();
        match (&mut w.graph, &mut w.queries) {
            (
                GraphShape::Communities {
                    count, size: gsize, ..
                },
                QueryShape::Community {
                    communities: qcount,
                    size: qsize,
                    ..
                },
            ) => {
                (*count, *qcount, *gsize, *qsize) = (communities, communities, size, size);
            }
            (GraphShape::Road { side: s, .. }, _) => *s = side,
            _ => unreachable!("community graphs use community queries"),
        }
        w
    }

    /// The validation twin of this workload (see `run::validate_twin`).
    pub fn twin(&self) -> Workload {
        self.shrunk(4, 1024, 64)
    }

    #[cfg(test)]
    pub fn small(&self) -> Workload {
        self.shrunk(4, 256, 40)
    }
}
