//! The immutable CSR bipartite graph.

use crate::{
    ids::{check_id_space, ClientId, ServerId},
    GraphError, Result,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fewest edges per [`BipartiteGraph::from_edges`] chunk: shorter lists are built in
/// one chunk.
const MIN_EDGE_CHUNK: usize = 1 << 16;

/// Most chunks [`BipartiteGraph::from_edges`] splits a list into.
const MAX_EDGE_CHUNKS: usize = 32;

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
    /// [`crate::GraphBuilder`] if de-duplication is wanted), and every index must be
    /// in range. A list whose client ids never decrease — grouped by client, as the
    /// generators that build through this function write theirs — is already the
    /// client CSR up to the order inside each block, and is built in two parallel
    /// passes on the rayon pool. Any other order takes a serial counting sort by
    /// client. Both give the same graph, with every block sorted ascending, and the
    /// same error: the first out-of-range edge in list order, else the smallest client
    /// with a duplicate edge and its smallest duplicated server.
    ///
    /// Client or server counts above [`MAX_NODES`](crate::ids::MAX_NODES) are
    /// rejected with [`GraphError::InvalidParameters`] before anything is allocated.
    pub fn from_edges(
        num_clients: usize,
        num_servers: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self> {
        check_id_space(num_clients as u64, num_servers as u64)
            .map_err(GraphError::InvalidParameters)?;
        // The chunks are a function of the list and server counts only, never of the
        // thread count. At least 4·S edges per chunk keep the per-chunk server rows at
        // a quarter of the list's length, and a row cell, which counts one chunk's
        // edges at one server, fits in a `u32`.
        let pieces = (edges.len() / MIN_EDGE_CHUNK)
            .min(edges.len() / (4 * num_servers.max(1)))
            .clamp(1, MAX_EDGE_CHUNKS);
        let chunk = chunk_len(edges.len(), pieces).min(u32::MAX as usize);
        // With no servers every edge fails its range check before it is counted, so
        // the one-cell rows stay empty.
        let width = num_servers.max(1);
        let mut rows = vec![0u32; edges.len().div_ceil(chunk) * width];
        // Zeroed `u32`s come from the allocator as untouched pages, so pass 1 faults
        // them in on the pool; the rewrap as `ServerId`s below reuses the allocation.
        let mut servers = vec![0u32; edges.len()];

        // Pass 1. The first chunk with an out-of-range edge reports the error.
        let scans = edges
            .par_chunks(chunk)
            .zip(servers.par_chunks_mut(chunk))
            .zip(rows.par_chunks_mut(width))
            .map(|((edges, servers), row)| {
                scan_chunk(num_clients, edges, servers, &mut row[..num_servers])
            })
            .collect::<Result<Vec<ChunkScan>>>()?;
        let mut client_edges: Vec<ServerId> = servers.into_iter().map(ServerId).collect();
        let server_degrees = column_sums(&rows, num_servers, pieces);

        let grouped = scans.iter().all(|scan| scan.grouped)
            && scans.windows(2).all(|pair| pair[0].last <= pair[1].first);
        if !grouped {
            // A serial counting sort by client; its scatter rewrites every slot pass 1
            // wrote.
            let mut cursor = vec![0u64; num_clients];
            for &(c, _) in edges {
                cursor[c as usize] += 1;
            }
            let client_offsets = prefix_sum(cursor.iter().copied());
            cursor.copy_from_slice(&client_offsets[..num_clients]);
            for &(c, s) in edges {
                let slot = &mut cursor[c as usize];
                client_edges[*slot as usize] = ServerId(s);
                *slot += 1;
            }
            return Self::from_client_blocks(
                num_servers,
                client_offsets,
                client_edges,
                server_degrees,
            );
        }

        // Pass 2: a grouped list is its own counting sort, so pass 1 already wrote
        // every block in place and only the offsets remain.
        let client_offsets = grouped_offsets(num_clients, edges, pieces);
        // Pass 1 left every block sorted except each chunk's first and last, which may
        // continue into a neighbouring chunk. They ascend in a grouped list, so a
        // block shared by several chunks is sorted once.
        let mut boundary: Vec<u32> = scans
            .iter()
            .flat_map(|scan| [scan.first, scan.last])
            .collect();
        boundary.dedup();
        let boundary_duplicate = boundary.into_iter().find_map(|c| {
            let c = c as usize;
            let (lo, hi) = (client_offsets[c] as usize, client_offsets[c + 1] as usize);
            sort_block(&mut client_edges[lo..hi]).map(|server| (c, server.index()))
        });
        // Every block was checked in exactly one place, and each place reports its
        // smallest client with a duplicate.
        let duplicate = scans
            .iter()
            .filter_map(|scan| scan.duplicate)
            .chain(boundary_duplicate)
            .min();
        if let Some((client, server)) = duplicate {
            return Err(GraphError::DuplicateEdge { client, server });
        }
        Ok(Self::from_checked_csr(
            num_servers,
            client_offsets,
            client_edges,
            server_degrees,
        ))
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
        let duplicate = client_offsets
            .windows(2)
            .enumerate()
            .find_map(|(client, w)| {
                let block = &mut client_edges[w[0] as usize..w[1] as usize];
                sort_block(block).map(|server| (client, server.index()))
            });
        if let Some((client, server)) = duplicate {
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

/// What pass 1 of [`BipartiteGraph::from_edges`] learns about one chunk of the list.
struct ChunkScan {
    /// Whether the chunk's client ids never decrease.
    grouped: bool,
    /// The chunk's first and last client.
    first: u32,
    last: u32,
    /// The smallest duplicate `(client, server)` among the blocks that start and end
    /// inside a grouped chunk.
    duplicate: Option<(usize, usize)>,
}

/// Pass 1 over one non-empty chunk: range-checks every edge, client first, and stops
/// at the first bad one; copies each server id into `servers` and counts it in
/// `row`, which is `num_servers` long. While the chunk stays grouped, each block that
/// starts and ends inside it is sorted and duplicate-checked as it ends, unless its
/// servers already strictly ascend.
fn scan_chunk(
    num_clients: usize,
    edges: &[(u32, u32)],
    servers: &mut [u32],
    row: &mut [u32],
) -> Result<ChunkScan> {
    let num_servers = row.len();
    let servers = &mut servers[..edges.len()];
    let first = edges[0].0;
    let mut last = first;
    let mut grouped = true;
    let mut duplicate = None;
    // Where the current client's block starts, and whether its servers ascend so far.
    let mut block_start = 0;
    let mut ascending = true;
    for (i, &(c, s)) in edges.iter().enumerate() {
        if c as usize >= num_clients {
            return Err(GraphError::ClientOutOfRange {
                client: c as usize,
                num_clients,
            });
        }
        if s as usize >= num_servers {
            return Err(GraphError::ServerOutOfRange {
                server: s as usize,
                num_servers,
            });
        }
        if c == last {
            ascending &= i == block_start || s > servers[i - 1];
        } else {
            grouped &= c > last;
            // The chunk's first block may have started in the previous chunk.
            if grouped && block_start > 0 && !ascending {
                if let Some(server) = sort_block(&mut servers[block_start..i]) {
                    duplicate.get_or_insert((last as usize, server as usize));
                }
            }
            block_start = i;
            ascending = true;
            last = c;
        }
        servers[i] = s;
        row[s as usize] += 1;
    }
    Ok(ChunkScan {
        grouped,
        first,
        last,
        duplicate,
    })
}

/// Server degrees as the column sums of the per-chunk count rows, one server chunk
/// per piece.
fn column_sums(rows: &[u32], num_servers: usize, pieces: usize) -> Vec<u64> {
    let mut degrees = vec![0u64; num_servers];
    let chunk = chunk_len(num_servers, pieces);
    degrees
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(k, degrees)| {
            for row in rows.chunks_exact(num_servers) {
                for (degree, &count) in degrees.iter_mut().zip(&row[k * chunk..]) {
                    *degree += u64::from(count);
                }
            }
        });
    degrees
}

/// CSR offsets of a list whose client ids never decrease, one client chunk per
/// piece: each chunk finds its first client's first edge by binary search and walks
/// forward.
fn grouped_offsets(num_clients: usize, edges: &[(u32, u32)], pieces: usize) -> Vec<u64> {
    let mut offsets = vec![0u64; num_clients + 1];
    let chunk = chunk_len(num_clients + 1, pieces);
    offsets
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(k, offsets)| {
            let first = k * chunk;
            let mut edge = edges.partition_point(|&(c, _)| (c as usize) < first);
            for (client, offset) in (first..).zip(offsets) {
                edge += edges[edge..]
                    .iter()
                    .take_while(|&&(c, _)| (c as usize) < client)
                    .count();
                *offset = edge as u64;
            }
        });
    offsets
}

/// The chunk length that tiles `len` items into at most `pieces` chunks; never 0.
fn chunk_len(len: usize, pieces: usize) -> usize {
    len.div_ceil(pieces.max(1)).max(1)
}

/// Sorts one client block and returns its smallest duplicated server, if any.
fn sort_block<T: Ord + Copy>(block: &mut [T]) -> Option<T> {
    block.sort_unstable();
    block
        .windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
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
        // With no servers every edge is out of range, its client checked first.
        let err = BipartiteGraph::from_edges(2, 0, &[(0, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ServerOutOfRange { server: 0, .. }
        ));
        let err = BipartiteGraph::from_edges(2, 0, &[(2, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ClientOutOfRange { client: 2, .. }
        ));
    }

    #[test]
    fn counts_beyond_the_id_space_are_rejected() {
        let too_many = (crate::ids::MAX_NODES + 1) as usize;
        for (clients, servers, side) in [(too_many, 1, "clients"), (1, too_many, "servers")] {
            match BipartiteGraph::from_edges(clients, servers, &[]) {
                Err(GraphError::InvalidParameters(msg)) => assert!(msg.contains(side), "{msg}"),
                other => panic!("expected an id-space error, got {other:?}"),
            }
        }
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
        let g = BipartiteGraph::from_edges(3, 0, &[]).unwrap();
        assert_eq!(g.num_clients(), 3);
        assert!(g.has_isolated_client());
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
