//! The public dynamic connectivity interface shared by every algorithm
//! variant.

/// A concurrent, linearizable dynamic connectivity structure over a fixed
/// vertex set `0..n` (paper Section 1):
///
/// * [`DynamicConnectivity::add_edge`] inserts an undirected edge,
/// * [`DynamicConnectivity::remove_edge`] deletes it,
/// * [`DynamicConnectivity::connected`] answers whether two vertices are in
///   the same connected component.
///
/// All methods take `&self` and may be called concurrently from any number
/// of threads; each implementation provides its own synchronization (that is
/// exactly what distinguishes the paper's thirteen evaluated variants).
pub trait DynamicConnectivity: Send + Sync {
    /// Adds the undirected edge `(u, v)`. Adding an edge that is already
    /// present (or a self-loop) is a no-op.
    fn add_edge(&self, u: u32, v: u32);

    /// Removes the undirected edge `(u, v)`. Removing an absent edge is a
    /// no-op.
    fn remove_edge(&self, u: u32, v: u32);

    /// Returns `true` if `u` and `v` are currently in the same connected
    /// component.
    fn connected(&self, u: u32, v: u32) -> bool;

    /// Number of vertices of the underlying graph.
    fn num_vertices(&self) -> usize;

    /// The counters of the structure behind this door (see
    /// [`dc_obs::Tally`]), if it keeps any: HDT operations, read-path hint
    /// hits and misses, and batch and WAL events. `None` means the variant
    /// has no HDT to report on. A scrape loop hands it to
    /// [`dc_obs::ObsSnapshot::gather`] without reaching through the trait
    /// object.
    fn tally(&self) -> Option<&dc_obs::Tally> {
        None
    }

    /// Enables or disables the root-hint read fast path on this structure
    /// (both settings are correct; hints are strictly an accelerator). Set
    /// it before sharing the structure for a deterministic state. The
    /// default does nothing, for implementations without a hint cache.
    fn set_read_hints(&self, _enabled: bool) {}
}

/// One operation of a batch submitted through [`BatchConnectivity`].
///
/// The same three operations as [`DynamicConnectivity`], reified as data so
/// a whole burst can be shipped at once, deduplicated and annihilated before
/// it ever touches the tree (the `dc_batch` engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// `add_edge(u, v)`.
    Add(u32, u32),
    /// `remove_edge(u, v)`.
    Remove(u32, u32),
    /// `connected(u, v)`.
    Query(u32, u32),
}

impl BatchOp {
    /// Returns `true` for the read-only `Query` operation.
    #[inline]
    pub fn is_query(&self) -> bool {
        matches!(self, BatchOp::Query(_, _))
    }

    /// The two vertices named by the operation.
    #[inline]
    pub fn endpoints(&self) -> (u32, u32) {
        match *self {
            BatchOp::Add(u, v) | BatchOp::Remove(u, v) | BatchOp::Query(u, v) => (u, v),
        }
    }
}

/// The answer to one [`BatchOp::Query`] of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Index of the query in the submitted batch slice.
    pub op_index: usize,
    /// The queried pair.
    pub u: u32,
    /// The queried pair.
    pub v: u32,
    /// Whether `u` and `v` were connected at the query's position in the
    /// batch (i.e. with every earlier update of the batch applied and no
    /// later one).
    pub connected: bool,
}

/// Bulk submission: apply a whole batch of operations at once.
///
/// `apply_batch` is *sequentially equivalent*: the returned answers are
/// exactly those of executing `ops` one at a time, in slice order, on an
/// otherwise idle structure. Implementations exploit the slack inside that
/// contract — updates between two queries can be deduplicated, annihilated
/// and reordered freely (only the net edge set at each query point is
/// observable), and a run of consecutive queries can be answered in parallel
/// against one consistent state.
pub trait BatchConnectivity: DynamicConnectivity {
    /// Applies `ops` in order and returns the answers of all `Query`
    /// operations, in batch order (`op_index` links each answer back to its
    /// position in `ops`).
    fn apply_batch(&self, ops: &[BatchOp]) -> Vec<QueryResult>;
}

/// The reference semantics of [`BatchConnectivity::apply_batch`]: one
/// operation at a time through the single-op interface. Differential tests
/// compare every batched implementation against this.
pub fn sequential_apply_batch(
    structure: &dyn DynamicConnectivity,
    ops: &[BatchOp],
) -> Vec<QueryResult> {
    let mut results = Vec::new();
    for (op_index, op) in ops.iter().enumerate() {
        match *op {
            BatchOp::Add(u, v) => structure.add_edge(u, v),
            BatchOp::Remove(u, v) => structure.remove_edge(u, v),
            BatchOp::Query(u, v) => results.push(QueryResult {
                op_index,
                u,
                v,
                connected: structure.connected(u, v),
            }),
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_op_accessors() {
        assert!(BatchOp::Query(1, 2).is_query());
        assert!(!BatchOp::Add(1, 2).is_query());
        assert!(!BatchOp::Remove(1, 2).is_query());
        assert_eq!(BatchOp::Add(3, 4).endpoints(), (3, 4));
        assert_eq!(BatchOp::Remove(4, 3).endpoints(), (4, 3));
        assert_eq!(BatchOp::Query(0, 9).endpoints(), (0, 9));
    }

    #[test]
    fn sequential_apply_batch_matches_single_op_semantics() {
        let oracle = crate::baseline::RecomputeOracle::new(4);
        let ops = [
            BatchOp::Query(0, 1),
            BatchOp::Add(0, 1),
            BatchOp::Query(0, 1),
            BatchOp::Add(1, 2),
            BatchOp::Remove(0, 1),
            BatchOp::Query(0, 2),
            BatchOp::Query(1, 2),
        ];
        let results = sequential_apply_batch(&oracle, &ops);
        assert_eq!(
            results,
            vec![
                QueryResult {
                    op_index: 0,
                    u: 0,
                    v: 1,
                    connected: false
                },
                QueryResult {
                    op_index: 2,
                    u: 0,
                    v: 1,
                    connected: true
                },
                QueryResult {
                    op_index: 5,
                    u: 0,
                    v: 2,
                    connected: false
                },
                QueryResult {
                    op_index: 6,
                    u: 1,
                    v: 2,
                    connected: true
                },
            ]
        );
    }
}
