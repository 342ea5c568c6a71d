//! Compact binary snapshots of generated graphs.
//!
//! Snapshots are the form in which a graph crosses a process boundary: the sharded
//! scenario runner generates each shared graph once in the driver and ships it to its
//! worker processes inside their manifests. Within one process graphs are shared
//! directly and never round-trip through this codec. The format is a simple
//! length-prefixed little-endian encoding of the edge list built on the `bytes` crate;
//! it is deliberately independent of the in-memory CSR layout so the format stays stable
//! even if the internal representation changes.
//!
//! [`decode`] validates the header before it allocates: client and server counts above
//! [`MAX_NODES`](crate::ids::MAX_NODES) (the `u32` id space) and edge counts longer than the input are
//! rejected as corrupt. A header within those limits can still make the decoder
//! allocate per-node arrays far larger than the input (8 bytes per declared client or
//! server); bounding every allocation by the input length waits for snapshot v2, whose
//! CSR-native layout carries one degree per node.

use crate::ids::check_id_space;
use crate::{bipartite::BipartiteGraph, GraphError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number identifying a graph snapshot ("CLBG" in ASCII).
const MAGIC: u32 = 0x434C_4247;
/// Format version; bump when the encoding changes.
const VERSION: u32 = 1;

/// Serialises a graph into a compact binary snapshot.
pub fn encode(graph: &BipartiteGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(24 + graph.num_edges() * 8);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(graph.num_clients() as u64);
    buf.put_u64_le(graph.num_servers() as u64);
    buf.put_u64_le(graph.num_edges() as u64);
    for (c, s) in graph.edges() {
        buf.put_u32_le(c.0);
        buf.put_u32_le(s.0);
    }
    buf.freeze()
}

/// Reconstructs a graph from a snapshot produced by [`encode`].
pub fn decode(mut data: &[u8]) -> Result<BipartiteGraph> {
    let need = |data: &[u8], bytes: usize, what: &str| -> Result<()> {
        if data.remaining() < bytes {
            return Err(GraphError::CorruptSnapshot(format!(
                "truncated while reading {what}"
            )));
        }
        Ok(())
    };

    need(data, 4, "magic")?;
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return Err(GraphError::CorruptSnapshot(format!(
            "bad magic 0x{magic:08x}"
        )));
    }
    need(data, 4, "version")?;
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(GraphError::CorruptSnapshot(format!(
            "unsupported version {version}"
        )));
    }
    need(data, 24, "header")?;
    let num_clients = data.get_u64_le();
    let num_servers = data.get_u64_le();
    check_id_space(num_clients, num_servers).map_err(GraphError::CorruptSnapshot)?;
    let (num_clients, num_servers) = (num_clients as usize, num_servers as usize);
    let num_edges = data.get_u64_le() as usize;
    need(data, num_edges.saturating_mul(8), "edge list")?;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let c = data.get_u32_le();
        let s = data.get_u32_le();
        edges.push((c, s));
    }
    if data.has_remaining() {
        return Err(GraphError::CorruptSnapshot(format!(
            "{} trailing bytes after edge list",
            data.remaining()
        )));
    }
    BipartiteGraph::from_edges(num_clients, num_servers, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::ids::MAX_NODES;

    #[test]
    fn round_trip_preserves_graph() {
        let g = generators::regular_random(64, 9, 4).unwrap();
        let bytes = encode(&g);
        let back = decode(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trip_empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let back = decode(&encode(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let mut bytes = encode(&g).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let mut bytes = encode(&g).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let bytes = encode(&g);
        for cut in [0usize, 3, 7, 20, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decoding a snapshot truncated to {cut} bytes should fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let mut bytes = encode(&g).to_vec();
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    /// A 32-byte snapshot of an edgeless graph with the given header counts.
    fn header_only(num_clients: u64, num_servers: u64) -> Vec<u8> {
        let mut bytes = encode(&BipartiteGraph::from_edges(0, 0, &[]).unwrap()).to_vec();
        bytes[8..16].copy_from_slice(&num_clients.to_le_bytes());
        bytes[16..24].copy_from_slice(&num_servers.to_le_bytes());
        bytes
    }

    #[test]
    fn counts_beyond_the_id_space_rejected_before_allocation() {
        // u64::MAX clients used to overflow the degree array's capacity; 2^36 clients
        // requested a 512 GiB allocation. Both are corrupt, on either side.
        for huge in [u64::MAX, 1 << 36, MAX_NODES + 1] {
            for (clients, servers) in [(huge, 1), (1, huge)] {
                assert!(
                    matches!(
                        decode(&header_only(clients, servers)),
                        Err(GraphError::CorruptSnapshot(_))
                    ),
                    "{clients} clients, {servers} servers"
                );
            }
        }
        let g = decode(&header_only(3, 2)).unwrap();
        assert_eq!((g.num_clients(), g.num_servers(), g.num_edges()), (3, 2, 0));
    }

    #[test]
    fn snapshot_size_is_linear_in_edges() {
        let g = generators::regular_random(32, 4, 2).unwrap();
        let bytes = encode(&g);
        assert_eq!(bytes.len(), 32 + g.num_edges() * 8);
    }
}
