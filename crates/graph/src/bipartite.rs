//! The immutable CSR bipartite graph.

use crate::{
    ids::{ClientId, ServerId},
    GraphError, Result,
};
use serde::{Deserialize, Serialize};

/// An immutable bipartite client-server graph in compressed sparse row form.
///
/// Adjacency is stored client-side only: one offsets array plus one flat array of
/// server ids, each client's block sorted ascending. A client only ever contacts its
/// neighbourhood `N(v)`, so that is the one direction the engine reads. Servers keep
/// just their degrees, for [`BipartiteGraph::server_degree`] and
/// [`crate::DegreeStats`].
///
/// The graph is *simple*: no duplicate (client, server) edges. Multi-edges would skew
/// the uniform-neighbour sampling distribution the paper's protocols rely on, so the
/// [`crate::GraphBuilder`] either rejects or de-duplicates them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BipartiteGraph {
    num_clients: usize,
    num_servers: usize,
    client_offsets: Vec<u64>,
    client_edges: Vec<ServerId>,
    server_degrees: Vec<u64>,
}

impl BipartiteGraph {
    /// Builds a graph from a (client, server) edge list.
    ///
    /// The edge list may be in any order; it must not contain duplicates (use
    /// [`crate::GraphBuilder`] if de-duplication is wanted). Every index must be in
    /// range.
    pub fn from_edges(
        num_clients: usize,
        num_servers: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self> {
        // Count degrees first.
        let mut cursor = vec![0u64; num_clients];
        let mut server_degrees = vec![0u64; num_servers];
        for &(c, s) in edges {
            let (ci, si) = (c as usize, s as usize);
            if ci >= num_clients {
                return Err(GraphError::ClientOutOfRange {
                    client: ci,
                    num_clients,
                });
            }
            if si >= num_servers {
                return Err(GraphError::ServerOutOfRange {
                    server: si,
                    num_servers,
                });
            }
            cursor[ci] += 1;
            server_degrees[si] += 1;
        }

        let client_offsets = prefix_sum(cursor.iter().copied());
        // The degree buffer becomes the scatter cursor: each client's next free slot.
        cursor.copy_from_slice(&client_offsets[..num_clients]);
        let mut client_edges = vec![ServerId(0); edges.len()];
        for &(c, s) in edges {
            let slot = &mut cursor[c as usize];
            client_edges[*slot as usize] = ServerId(s);
            *slot += 1;
        }
        Self::from_client_blocks(num_servers, client_offsets, client_edges, server_degrees)
    }

    /// Assembles a graph from client-side CSR arrays: client `c` owns
    /// `client_edges[client_offsets[c]..client_offsets[c + 1]]`, in any order, and
    /// `server_degrees` must count each server's occurrences in `client_edges`.
    ///
    /// Sorts every block into canonical order, which makes equality and snapshots
    /// deterministic, and rejects the first duplicate in ascending client order.
    pub(crate) fn from_client_blocks(
        num_servers: usize,
        client_offsets: Vec<u64>,
        mut client_edges: Vec<ServerId>,
        server_degrees: Vec<u64>,
    ) -> Result<Self> {
        if let Some((client, server)) =
            sort_ranges_detect_duplicate(&client_offsets, &mut client_edges)
        {
            return Err(GraphError::DuplicateEdge { client, server });
        }
        Ok(Self::from_checked_csr(
            num_servers,
            client_offsets,
            client_edges,
            server_degrees,
        ))
    }

    /// Wraps client-side CSR arrays that already hold every invariant of the type:
    /// `client_offsets` runs from 0 to `client_edges.len()`, each block is strictly
    /// ascending with ids below `num_servers`, and `server_degrees` counts each
    /// server's occurrences. The snapshot decoder checks all of this in its one pass.
    pub(crate) fn from_checked_csr(
        num_servers: usize,
        client_offsets: Vec<u64>,
        client_edges: Vec<ServerId>,
        server_degrees: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(server_degrees.len(), num_servers);
        debug_assert_eq!(
            client_offsets.last().copied(),
            Some(client_edges.len() as u64)
        );
        Self {
            num_clients: client_offsets.len() - 1,
            num_servers,
            client_offsets,
            client_edges,
            server_degrees,
        }
    }

    #[inline]
    fn client_range(&self, c: usize) -> (usize, usize) {
        (
            self.client_offsets[c] as usize,
            self.client_offsets[c + 1] as usize,
        )
    }

    /// Number of clients `|C|`.
    #[inline]
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of servers `|S|`.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.client_edges.len()
    }

    /// The servers adjacent to client `v` — the neighbourhood `N(v)` of the paper.
    #[inline]
    pub fn client_neighbors(&self, v: ClientId) -> &[ServerId] {
        let (lo, hi) = self.client_range(v.index());
        &self.client_edges[lo..hi]
    }

    /// Degree of client `v`, written `Δ_v` in the paper.
    #[inline]
    pub fn client_degree(&self, v: ClientId) -> usize {
        let (lo, hi) = self.client_range(v.index());
        hi - lo
    }

    /// Degree of server `u`, written `Δ_u` in the paper.
    #[inline]
    pub fn server_degree(&self, u: ServerId) -> usize {
        self.server_degrees[u.index()] as usize
    }

    /// Returns `true` if the edge (v, u) is present. Binary search, `O(log Δ_v)`.
    pub fn has_edge(&self, v: ClientId, u: ServerId) -> bool {
        self.client_neighbors(v).binary_search(&u).is_ok()
    }

    /// Iterates over all clients.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        (0..self.num_clients).map(ClientId::new)
    }

    /// Iterates over all servers.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.num_servers).map(ServerId::new)
    }

    /// Iterates over all edges in canonical (client, server) order.
    pub fn edges(&self) -> impl Iterator<Item = (ClientId, ServerId)> + '_ {
        self.clients()
            .flat_map(move |c| self.client_neighbors(c).iter().map(move |&s| (c, s)))
    }

    /// Returns `true` if some client has an empty neighbourhood (such a client can never
    /// place its balls, so every protocol run on the graph would fail to terminate).
    pub fn has_isolated_client(&self) -> bool {
        self.clients().any(|c| self.client_degree(c) == 0)
    }
}

/// Sorts each client CSR range in place and reports the first duplicate as
/// `(client, server)` — the adjacent-equal check runs in the same walk as the sort,
/// in ascending client order, so the reported edge matches what a separate
/// ascending scan of the sorted adjacency would have found.
fn sort_ranges_detect_duplicate(offsets: &[u64], edges: &mut [ServerId]) -> Option<(usize, usize)> {
    for (client, w) in offsets.windows(2).enumerate() {
        let range = &mut edges[w[0] as usize..w[1] as usize];
        range.sort_unstable();
        for pair in range.windows(2) {
            if pair[0] == pair[1] {
                return Some((client, pair[0].index()));
            }
        }
    }
    None
}

/// CSR offsets of a degree sequence: `0` followed by its running sums.
pub(crate) fn prefix_sum(degrees: impl ExactSizeIterator<Item = u64>) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> BipartiteGraph {
        // 3 clients, 4 servers.
        // c0 - s0, s1 ; c1 - s1, s2, s3 ; c2 - s3
        BipartiteGraph::from_edges(3, 4, &[(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn sizes_and_degrees() {
        let g = small_graph();
        assert_eq!(g.num_clients(), 3);
        assert_eq!(g.num_servers(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.client_degree(ClientId(0)), 2);
        assert_eq!(g.client_degree(ClientId(1)), 3);
        assert_eq!(g.client_degree(ClientId(2)), 1);
        assert_eq!(g.server_degree(ServerId(0)), 1);
        assert_eq!(g.server_degree(ServerId(1)), 2);
        assert_eq!(g.server_degree(ServerId(3)), 2);
    }

    #[test]
    fn adjacency_is_sorted_and_server_degrees_match() {
        let g = small_graph();
        assert_eq!(
            g.client_neighbors(ClientId(1)),
            &[ServerId(1), ServerId(2), ServerId(3)]
        );
        // Each server's degree is the number of client lists containing it.
        for s in g.servers() {
            let holders = g
                .clients()
                .filter(|&c| g.client_neighbors(c).contains(&s))
                .count();
            assert_eq!(g.server_degree(s), holders, "{s}");
        }
        let degree_sum: usize = g.servers().map(|s| g.server_degree(s)).sum();
        assert_eq!(degree_sum, g.num_edges());
    }

    #[test]
    fn has_edge_queries() {
        let g = small_graph();
        assert!(g.has_edge(ClientId(0), ServerId(1)));
        assert!(!g.has_edge(ClientId(0), ServerId(3)));
        assert!(!g.has_edge(ClientId(2), ServerId(0)));
    }

    #[test]
    fn edge_order_does_not_matter() {
        let a = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1), (0, 1)]).unwrap();
        let b = BipartiteGraph::from_edges(2, 2, &[(0, 1), (0, 0), (1, 1)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(2, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ClientOutOfRange { client: 2, .. }
        ));
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ServerOutOfRange { server: 5, .. }
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 1), (0, 1)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::DuplicateEdge {
                client: 0,
                server: 1
            }
        ));
    }

    #[test]
    fn empty_graph_and_isolated_clients() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        assert!(g.has_isolated_client());
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        assert!(!g.has_isolated_client());
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_isolated_client());
    }

    #[test]
    fn edges_iterator_is_exhaustive_and_canonical() {
        let g = small_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0], (ClientId(0), ServerId(0)));
        assert_eq!(edges[5], (ClientId(2), ServerId(3)));
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted);
    }
}
