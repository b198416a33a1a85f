//! Seeded input generation: the graph, the preloaded subset, each client's
//! edge pool and op stream. Everything here runs before timing starts and is
//! a pure function of the workload and the seed.

use crate::workload::{QueryShape, Workload};
use dc_graph::Edge;

/// SplitMix64: small, fast and fully specified, so a stream depends only on
/// the seed and never on a library's generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Derives an independent stream seed for one purpose of one run.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf over `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let mut total = 0.0;
        for c in cdf.iter_mut() {
            total += *c;
            *c = total;
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Draws query pairs (never `u == v`) from a workload's query shape.
pub struct PairSampler {
    n: u32,
    shape: QueryShape,
    zipf: Option<Zipf>,
    /// Community rank → community id, so the hottest community differs
    /// between seeds.
    order: Vec<u32>,
}

impl PairSampler {
    pub fn new(n: usize, shape: QueryShape, seed: u64) -> Self {
        match shape {
            QueryShape::Uniform => PairSampler {
                n: n as u32,
                shape,
                zipf: None,
                order: Vec::new(),
            },
            QueryShape::Community {
                communities, theta, ..
            } => {
                let mut order: Vec<u32> = (0..communities as u32).collect();
                Rng::new(seed).shuffle(&mut order);
                PairSampler {
                    n: n as u32,
                    shape,
                    zipf: Some(Zipf::new(communities, theta)),
                    order,
                }
            }
        }
    }

    pub fn pair(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let (u, v) = match (self.shape, &self.zipf) {
                (
                    QueryShape::Community {
                        size, inside_pct, ..
                    },
                    Some(zipf),
                ) if rng.below(100) < inside_pct as u64 => {
                    let base = self.order[zipf.sample(rng)] * size as u32;
                    (
                        base + rng.below(size as u64) as u32,
                        base + rng.below(size as u64) as u32,
                    )
                }
                _ => (
                    rng.below(self.n as u64) as u32,
                    rng.below(self.n as u64) as u32,
                ),
            };
            if u != v {
                return (u, v);
            }
        }
    }
}

/// One step of a client's op stream. `Queries` runs the workload's query
/// group (the next `group` pairs of the stream's pair list); an update
/// carries a random pick that selects an edge from the client's own pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Queries,
    Add(u32),
    Remove(u32),
}

/// A client's pregenerated op stream, replayed cyclically.
pub struct Stream {
    pub steps: Vec<Step>,
    pub pairs: Vec<(u32, u32)>,
}

/// Steps and pairs per client stream; replayed cyclically, so the
/// length only bounds memory (each list is 16 MiB).
pub const STREAM_LEN: usize = 1 << 21;

impl Stream {
    pub fn generate(w: &Workload, sampler: &PairSampler, seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let q = w.query_pct as f64 / 100.0;
        let g = w.group as f64;
        // A query step carries `group` queries; pick its probability so that
        // queries are `query_pct` percent of all operations.
        let p_query = q / (g * (1.0 - q) + q);
        let add_share = w.add_pct as f64 / (100 - w.query_pct) as f64;
        let steps = (0..STREAM_LEN)
            .map(|_| {
                if rng.unit() < p_query {
                    Step::Queries
                } else if rng.unit() < add_share {
                    Step::Add(rng.next_u64() as u32)
                } else {
                    Step::Remove(rng.next_u64() as u32)
                }
            })
            .collect();
        let pairs = (0..STREAM_LEN).map(|_| sampler.pair(&mut rng)).collect();
        Stream { steps, pairs }
    }

    /// FNV-1a over the stream's bytes: equal digests for equal streams.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for step in &self.steps {
            match *step {
                Step::Queries => eat(&[0]),
                Step::Add(p) => {
                    eat(&[1]);
                    eat(&p.to_le_bytes());
                }
                Step::Remove(p) => {
                    eat(&[2]);
                    eat(&p.to_le_bytes());
                }
            }
        }
        for &(u, v) in &self.pairs {
            eat(&u.to_le_bytes());
            eat(&v.to_le_bytes());
        }
        h
    }
}

/// The edges one client owns: those present in the structure and those
/// absent from it. Pools of different clients are disjoint, so the final
/// edge set is the union of the `present` lists.
#[derive(Clone, Default)]
pub struct Pool {
    pub present: Vec<Edge>,
    pub absent: Vec<Edge>,
}

/// What a client does for one update step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    Add(Edge),
    Remove(Edge),
}

impl Pool {
    /// Resolves an update step against the pool and applies it to the
    /// shadow. A step whose side of the pool is empty flips to the other
    /// kind, so no update ever targets an edge in the wrong state.
    pub fn take(&mut self, step: Step) -> Update {
        let (add, pick) = match step {
            Step::Add(p) => (!self.absent.is_empty(), p),
            Step::Remove(p) => (self.present.is_empty(), p),
            Step::Queries => unreachable!("query steps carry no update"),
        };
        let (from, to) = if add {
            (&mut self.absent, &mut self.present)
        } else {
            (&mut self.present, &mut self.absent)
        };
        let i = ((pick as u64 * from.len() as u64) >> 32) as usize;
        let edge = from.swap_remove(i);
        to.push(edge);
        if add {
            Update::Add(edge)
        } else {
            Update::Remove(edge)
        }
    }

    /// Undoes the shadow change of an update the structure did not apply.
    pub fn undo(&mut self, update: Update) {
        let (edge, from, to) = match update {
            Update::Add(e) => (e, &mut self.present, &mut self.absent),
            Update::Remove(e) => (e, &mut self.absent, &mut self.present),
        };
        if let Some(i) = from.iter().rposition(|&x| x == edge) {
            from.swap_remove(i);
            to.push(edge);
        }
    }
}

/// Everything a run needs, generated before any timing.
pub struct Inputs {
    pub n: usize,
    /// Edges loaded during setup, sorted.
    pub preload: Vec<Edge>,
    pub pools: Vec<Pool>,
    pub streams: Vec<Stream>,
    /// Pairs checked against the union-find oracle at the end.
    pub check_pairs: Vec<(u32, u32)>,
}

/// Pairs in the end-of-run correctness sample.
const CHECK_PAIRS: usize = 20_000;

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let graph = w.graph(derive(seed, 1));
        let n = graph.num_vertices();
        let mut universe = graph.edges().to_vec();
        drop(graph);
        Rng::new(derive(seed, 2)).shuffle(&mut universe);
        let loaded = (universe.len() as f64 * w.preload) as usize;
        let mut pools = vec![Pool::default(); w.clients];
        for (i, &e) in universe.iter().enumerate() {
            let pool = &mut pools[i % w.clients];
            if i < loaded {
                pool.present.push(e);
            } else {
                pool.absent.push(e);
            }
        }
        universe.truncate(loaded);
        // Loaded in edge-list order, as from a sorted file.
        universe.sort_unstable();
        let sampler = PairSampler::new(n, w.queries, derive(seed, 3));
        let streams = (0..w.clients)
            .map(|c| Stream::generate(w, &sampler, derive(seed, 10 + c as u64)))
            .collect();
        let mut rng = Rng::new(derive(seed, 4));
        let uniform = PairSampler::new(n, QueryShape::Uniform, 0);
        let check_pairs = (0..CHECK_PAIRS)
            .map(|i| {
                if i % 2 == 0 {
                    sampler.pair(&mut rng)
                } else {
                    uniform.pair(&mut rng)
                }
            })
            .collect();
        Inputs {
            n,
            preload: universe,
            pools,
            streams,
            check_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_gives_identical_streams() {
        for w in WORKLOADS.iter().map(Workload::small) {
            let a = Inputs::generate(&w, 42);
            let b = Inputs::generate(&w, 42);
            assert_eq!(a.preload, b.preload, "{}", w.name);
            assert_eq!(a.check_pairs, b.check_pairs, "{}", w.name);
            for (sa, sb) in a.streams.iter().zip(&b.streams) {
                assert_eq!(sa.steps, sb.steps, "{}", w.name);
                assert_eq!(sa.pairs, sb.pairs, "{}", w.name);
                assert_eq!(sa.digest(), sb.digest(), "{}", w.name);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in WORKLOADS.iter().map(Workload::small) {
            let a = Inputs::generate(&w, 1);
            let b = Inputs::generate(&w, 2);
            assert_ne!(a.streams[0].digest(), b.streams[0].digest(), "{}", w.name);
        }
    }

    #[test]
    fn stream_mix_matches_the_workload() {
        for w in WORKLOADS.iter().map(Workload::small) {
            let inputs = Inputs::generate(&w, 7);
            let s = &inputs.streams[0];
            let queries = s.steps.iter().filter(|s| **s == Step::Queries).count() * w.group;
            let adds = s.steps.iter().filter(|s| matches!(s, Step::Add(_))).count();
            let total = (queries + s.steps.len() - queries / w.group) as f64;
            let query_pct = 100.0 * queries as f64 / total;
            let add_pct = 100.0 * adds as f64 / total;
            assert!((query_pct - w.query_pct as f64).abs() < 0.5, "{}", w.name);
            assert!((add_pct - w.add_pct as f64).abs() < 0.5, "{}", w.name);
        }
    }

    #[test]
    fn pool_updates_keep_the_shadow_consistent() {
        let e = |u, v| Edge::new(u, v);
        let mut pool = Pool {
            present: vec![e(0, 1)],
            absent: vec![e(1, 2), e(2, 3)],
        };
        assert_eq!(pool.take(Step::Remove(0)), Update::Remove(e(0, 1)));
        // Nothing left to remove: the step flips to an add.
        let flipped = pool.take(Step::Remove(0));
        assert!(matches!(flipped, Update::Add(_)));
        pool.undo(flipped);
        assert!(pool.present.is_empty());
        assert_eq!(pool.absent.len(), 3);
    }
}
