//! Compact binary snapshots of generated graphs.
//!
//! Snapshots are the form in which a graph crosses a process boundary: the sharded
//! scenario runner generates each shared graph once in the driver and ships it to its
//! worker processes inside their manifests. Within one process graphs are shared
//! directly and never round-trip through this codec.
//!
//! # Layout (version 2)
//!
//! The body is the graph's own client-side CSR, so encoding copies arrays out and
//! decoding copies them back in, with no edge list and no sort. All integers are
//! little-endian.
//!
//! | field | encoding |
//! |-------|----------|
//! | magic, version | `u32` `"CLBG"`, `u32` 2 |
//! | clients, servers, edges | `u64`, `u64`, `u64` |
//! | client degrees | one `u32` per client |
//! | server degrees | one `u32` per server |
//! | server ids | one `u32` per edge, client-major: client `c`'s block holds its degree's worth of ids, strictly ascending |
//!
//! The strictly ascending blocks are the graph's canonical order, so equal graphs
//! have equal snapshots and a decoded graph is `==` to the one encoded.
//!
//! # Validation
//!
//! [`decode`] checks, in this order: the magic, the version, that both counts fit the
//! [`MAX_NODES`](crate::ids::MAX_NODES) id space, and that the body after the 32-byte
//! header is exactly `4 · (clients + servers + edges)` bytes (checked arithmetic).
//! Nothing is allocated before that last check, which also rejects truncation and
//! trailing bytes. The pass that copies the arrays then checks that the client degrees
//! sum to the edge count, that every id is below the server count and above its
//! predecessor in its block (which rules out duplicate edges), and that each server's
//! tally matches its declared degree. These cross-checks reject every single-bit flip
//! of a valid snapshot. The decoded graph takes 8 B per client, 8 B per server and
//! 4 B per edge: never more than twice the input.

use crate::ids::{check_id_space, ServerId};
use crate::{bipartite::prefix_sum, BipartiteGraph, GraphError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number identifying a graph snapshot ("CLBG" in ASCII).
const MAGIC: u32 = 0x434C_4247;
/// Format version; bump when the encoding changes.
const VERSION: u32 = 2;
/// Magic, version and the three `u64` counts.
const HEADER_BYTES: usize = 32;

/// Serialises a graph into a compact binary snapshot.
///
/// # Panics
///
/// If a node has degree 2³² or more, which would take 16 GiB of ids on its own.
pub fn encode(graph: &BipartiteGraph) -> Bytes {
    let words = graph.num_clients() + graph.num_servers() + graph.num_edges();
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + 4 * words);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(graph.num_clients() as u64);
    buf.put_u64_le(graph.num_servers() as u64);
    buf.put_u64_le(graph.num_edges() as u64);
    for c in graph.clients() {
        buf.put_u32_le(degree_word(graph.client_degree(c)));
    }
    for s in graph.servers() {
        buf.put_u32_le(degree_word(graph.server_degree(s)));
    }
    for c in graph.clients() {
        for s in graph.client_neighbors(c) {
            buf.put_u32_le(s.0);
        }
    }
    buf.freeze()
}

fn degree_word(degree: usize) -> u32 {
    u32::try_from(degree).expect("snapshot degrees are u32: a node of degree 2^32 needs 16 GiB")
}

/// Reconstructs a graph from a snapshot produced by [`encode`].
pub fn decode(mut data: &[u8]) -> Result<BipartiteGraph> {
    let need = |data: &[u8], bytes: usize, what: &str| {
        if data.remaining() < bytes {
            corrupt(format!("truncated while reading {what}"))
        } else {
            Ok(())
        }
    };

    need(data, 4, "magic")?;
    let magic = data.get_u32_le();
    if magic != MAGIC {
        return corrupt(format!("bad magic 0x{magic:08x}"));
    }
    need(data, 4, "version")?;
    let version = data.get_u32_le();
    if version != VERSION {
        return corrupt(format!("unsupported version {version}"));
    }
    need(data, 24, "header")?;
    let num_clients = data.get_u64_le();
    let num_servers = data.get_u64_le();
    let num_edges = data.get_u64_le();
    check_id_space(num_clients, num_servers).map_err(GraphError::CorruptSnapshot)?;
    let body_bytes = num_clients
        .checked_add(num_servers)
        .and_then(|words| words.checked_add(num_edges))
        .and_then(|words| words.checked_mul(4));
    if body_bytes != Some(data.len() as u64) {
        return corrupt(format!(
            "body of {} bytes, but {num_clients} clients, {num_servers} servers and \
             {num_edges} edges take 4 bytes each",
            data.len()
        ));
    }
    // The body holds a word per node and per edge, so every count fits in usize.
    let (num_clients, num_servers, num_edges) = (
        num_clients as usize,
        num_servers as usize,
        num_edges as usize,
    );
    let (client_words, rest) = data.split_at(4 * num_clients);
    let (server_words, id_words) = rest.split_at(4 * num_servers);

    let client_offsets = prefix_sum(words(client_words).map(u64::from));
    let degree_sum = client_offsets[num_clients];
    if degree_sum != num_edges as u64 {
        return corrupt(format!(
            "client degrees sum to {degree_sum}, but the header declares {num_edges} edges"
        ));
    }

    let mut client_edges = Vec::with_capacity(num_edges);
    let mut server_degrees = vec![0u64; num_servers];
    for (client, block) in client_offsets.windows(2).enumerate() {
        // Blocks are strictly ascending: `floor` is the least id the next may take.
        let mut floor = 0;
        for id in words(&id_words[4 * block[0] as usize..4 * block[1] as usize]) {
            let server = id as usize;
            if server < floor || server >= num_servers {
                return corrupt(format!(
                    "client {client} lists server {server} out of order or out of range \
                     ({num_servers} servers)"
                ));
            }
            floor = server + 1;
            server_degrees[server] += 1;
            client_edges.push(ServerId(id));
        }
    }
    for (server, (declared, &tally)) in words(server_words).zip(&server_degrees).enumerate() {
        if u64::from(declared) != tally {
            return corrupt(format!(
                "server {server} declares degree {declared} but is listed {tally} times"
            ));
        }
    }
    Ok(BipartiteGraph::from_checked_csr(
        num_servers,
        client_offsets,
        client_edges,
        server_degrees,
    ))
}

fn corrupt<T>(msg: String) -> Result<T> {
    Err(GraphError::CorruptSnapshot(msg))
}

/// The little-endian `u32` words of a buffer whose length is a multiple of 4.
fn words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
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
        // Version 1 is the retired edge-list layout; there is no decode path for it.
        for version in [1u8, 99] {
            let mut bytes = encode(&g).to_vec();
            bytes[4] = version;
            assert_eq!(
                decode(&bytes),
                Err(GraphError::CorruptSnapshot(format!(
                    "unsupported version {version}"
                )))
            );
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let bytes = encode(&g);
        for cut in [0usize, 3, 7, 20, 31, 32, bytes.len() - 1] {
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

    /// A header declaring the given counts and no edges, then `body_words` zero words.
    fn header(num_clients: u64, num_servers: u64, body_words: usize) -> Vec<u8> {
        let mut bytes = encode(&BipartiteGraph::from_edges(0, 0, &[]).unwrap()).to_vec();
        bytes[8..16].copy_from_slice(&num_clients.to_le_bytes());
        bytes[16..24].copy_from_slice(&num_servers.to_le_bytes());
        bytes.resize(HEADER_BYTES + 4 * body_words, 0);
        bytes
    }

    /// The snapshot of an edgeless graph: the header and a zero degree word per node.
    fn header_only(num_clients: u64, num_servers: u64) -> Vec<u8> {
        header(
            num_clients,
            num_servers,
            (num_clients + num_servers) as usize,
        )
    }

    fn error_of(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(GraphError::CorruptSnapshot(msg)) => msg,
            other => panic!("expected a corrupt-snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn counts_beyond_the_id_space_rejected_before_allocation() {
        // u64::MAX clients used to overflow the degree array's capacity; 2^36 clients
        // requested a 512 GiB allocation. Both are corrupt, on either side.
        for huge in [u64::MAX, 1 << 36, MAX_NODES + 1] {
            for (clients, servers) in [(huge, 1), (1, huge)] {
                let msg = error_of(&header(clients, servers, 2));
                assert!(
                    msg.contains("id space"),
                    "{clients} clients, {servers} servers: {msg}"
                );
            }
        }
        // Inside the id space, a body shorter than the counts require fails the
        // length check: a decoder that allocated per declared server first would ask
        // for 32 GiB here.
        let msg = error_of(&header(1, MAX_NODES, 1));
        assert!(msg.starts_with("body of 4 bytes"), "{msg}");
        let g = decode(&header_only(3, 2)).unwrap();
        assert_eq!((g.num_clients(), g.num_servers(), g.num_edges()), (3, 2, 0));
    }

    #[test]
    fn snapshot_size_is_linear_in_edges() {
        let g = generators::regular_random(32, 4, 2).unwrap();
        let bytes = encode(&g);
        let words = g.num_clients() + g.num_servers() + g.num_edges();
        assert_eq!(bytes.len(), 32 + 4 * words);
    }

    #[test]
    fn non_canonical_blocks_rejected() {
        // An 8 x 8 graph of degree 2: client degrees at bytes 32..64, server degrees
        // at 64..96, client 0's two ids at 96..104. Swapping those ids, or repeating
        // the first with the server degrees moved to match, keeps every count and
        // tally consistent, so only the strictly-ascending check can object.
        let g = generators::regular_random(8, 2, 1).unwrap();
        let bytes = encode(&g).to_vec();
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let set = |bytes: &mut [u8], at: usize, value: u32| {
            bytes[at..at + 4].copy_from_slice(&value.to_le_bytes())
        };
        let degree_at = |server: u32| 64 + 4 * server as usize;
        let (first, second) = (word(96), word(100));
        let mut swapped = bytes.clone();
        set(&mut swapped, 96, second);
        set(&mut swapped, 100, first);
        let mut repeated = bytes.clone();
        set(&mut repeated, 100, first);
        set(&mut repeated, degree_at(first), word(degree_at(first)) + 1);
        set(
            &mut repeated,
            degree_at(second),
            word(degree_at(second)) - 1,
        );
        for bad in [swapped, repeated] {
            let msg = error_of(&bad);
            assert!(msg.contains("out of order"), "{msg}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let g = generators::regular_random(8, 2, 1).unwrap();
        let bytes = encode(&g).to_vec();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&flipped).is_err(),
                "flipping bit {bit} went unnoticed"
            );
        }
    }
}
