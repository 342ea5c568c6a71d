//! `BipartiteGraph::from_edges` on lists long enough to be built in several chunks.
//!
//! `from_edges` splits 2¹⁸ edges on 4,096 servers into four chunks of 2¹⁶ edges. A
//! list whose client ids never decrease takes the parallel path: each chunk sorts
//! the blocks that start and end inside it, and a serial fix-up sorts each chunk's
//! first and last block. Any other order takes the serial counting sort. These
//! tests put blocks, zero-degree clients, duplicates and out-of-range edges on and
//! around the chunk boundaries. The two paths must give the same graph or the same
//! error, and so must 1 and 4 threads.

use clb_graph::{BipartiteGraph, ClientId, GraphError};
use clb_rng::{floyd_sample, shuffle, SplitMix64};

const SERVERS: usize = 4096;
/// Edges per chunk.
const CHUNK: usize = 1 << 16;
/// Edges of every list below: four chunks.
const EDGES: usize = 4 * CHUNK;

/// The main list's client degrees. Clients 1..=8192 (degree 8) fill chunk 0
/// exactly, and zero-degree clients sit at the start, at the end and on the first
/// chunk boundary (client 8193). Client 8194 (degree 12) shifts the later blocks by
/// four edges, so a block straddles each of the other two boundaries, and the
/// degree-4 client before the last restores the total of 2¹⁸.
fn degrees() -> Vec<usize> {
    let mut degrees = vec![0];
    degrees.extend([8; 8192]);
    degrees.extend([0, 12]);
    degrees.extend([8; 24574]);
    degrees.extend([4, 0]);
    degrees
}

/// Where each client's block starts in a client-major list with these degrees.
fn block_starts(degrees: &[usize]) -> Vec<usize> {
    degrees
        .iter()
        .scan(0, |start, &d| {
            let this = *start;
            *start += d;
            Some(this)
        })
        .collect()
}

/// A client-major list: each client's block holds distinct servers in random order.
fn client_major(degrees: &[usize], seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(degrees.iter().sum());
    for (c, &d) in degrees.iter().enumerate() {
        let mut block = floyd_sample(SERVERS, d, &mut rng);
        shuffle(&mut block, &mut rng);
        edges.extend(block.into_iter().map(|s| (c as u32, s as u32)));
    }
    edges
}

fn shuffled(edges: &[(u32, u32)], seed: u64) -> Vec<(u32, u32)> {
    let mut edges = edges.to_vec();
    shuffle(&mut edges, &mut SplitMix64::new(seed));
    edges
}

/// `from_edges` in a 1-thread and in a 4-thread pool, which must agree.
fn build(num_clients: usize, edges: &[(u32, u32)]) -> Result<BipartiteGraph, GraphError> {
    let on = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("stub pools always build")
            .install(|| BipartiteGraph::from_edges(num_clients, SERVERS, edges))
    };
    let one = on(1);
    assert_eq!(one, on(4), "1 and 4 threads disagree");
    one
}

/// Makes `client`'s block repeat one of its servers and returns that server.
fn duplicate_in_block(
    edges: &mut [(u32, u32)],
    starts: &[usize],
    client: usize,
    at: usize,
) -> usize {
    let server = edges[starts[client]].1;
    edges[starts[client] + at].1 = server;
    server as usize
}

#[test]
fn grouped_lists_match_the_serial_path() {
    let degrees = degrees();
    let num_clients = degrees.len();
    let starts = block_starts(&degrees);
    // The layout `degrees` describes.
    assert_eq!(degrees.iter().sum::<usize>(), EDGES);
    assert_eq!(starts[8192] + 8, CHUNK);
    assert_eq!((degrees[8193], starts[8194]), (0, CHUNK));
    for boundary in [2 * CHUNK, 3 * CHUNK] {
        let straddling = starts.partition_point(|&s| s < boundary) - 1;
        assert!(starts[straddling] + degrees[straddling] > boundary);
    }

    let edges = client_major(&degrees, 11);
    let graph = build(num_clients, &edges).expect("distinct servers in range");
    assert_eq!(
        build(num_clients, &shuffled(&edges, 12)).as_ref(),
        Ok(&graph),
        "the serial path builds the same graph"
    );
    let canonical: Vec<(u32, u32)> = graph.edges().map(|(c, s)| (c.0, s.0)).collect();
    assert_eq!(build(num_clients, &canonical).as_ref(), Ok(&graph));
    for (c, &d) in degrees.iter().enumerate() {
        let neighbours = graph.client_neighbors(ClientId::new(c));
        assert_eq!(neighbours.len(), d, "client {c}");
        assert!(neighbours.windows(2).all(|pair| pair[0] < pair[1]));
    }
    let degree_sum: usize = graph.servers().map(|s| graph.server_degree(s)).sum();
    assert_eq!(degree_sum, EDGES);
}

#[test]
fn chunks_grouped_only_inside_take_the_serial_path() {
    // The two halves swapped: every chunk's client ids still never decrease, but
    // the last client of chunk 1 comes before client 1 at the start of chunk 2, and
    // the block straddling the middle is split between the list's two ends.
    let degrees = degrees();
    let num_clients = degrees.len();
    let edges = client_major(&degrees, 13);
    let swapped = [&edges[EDGES / 2..], &edges[..EDGES / 2]].concat();
    assert_eq!(
        build(num_clients, &swapped),
        build(num_clients, &edges),
        "swapped halves"
    );
}

#[test]
fn the_earliest_out_of_range_edge_wins() {
    let degrees = degrees();
    let num_clients = degrees.len();
    let edges = client_major(&degrees, 14);
    let bad_client = GraphError::ClientOutOfRange {
        client: num_clients,
        num_clients,
    };
    let bad_server = GraphError::ServerOutOfRange {
        server: SERVERS,
        num_servers: SERVERS,
    };

    // Chunk 1 has a bad client near its start and chunk 2 a bad server.
    let mut bad = edges.clone();
    bad[CHUNK + 100].0 = num_clients as u32;
    bad[2 * CHUNK + 5].1 = SERVERS as u32;
    assert_eq!(build(num_clients, &bad), Err(bad_client.clone()));

    // The last edge of chunk 1 beats the first edge of chunk 2.
    let mut bad = edges.clone();
    bad[2 * CHUNK - 1].1 = SERVERS as u32;
    bad[2 * CHUNK].0 = num_clients as u32;
    assert_eq!(build(num_clients, &bad), Err(bad_server.clone()));

    // Within one edge the client is checked first.
    let mut bad = edges;
    bad[3 * CHUNK + 7] = (num_clients as u32, SERVERS as u32);
    assert_eq!(build(num_clients, &bad), Err(bad_client));
}

#[test]
fn the_smallest_client_with_a_duplicate_wins() {
    let degrees = degrees();
    let num_clients = degrees.len();
    let starts = block_starts(&degrees);
    let edges = client_major(&degrees, 15);
    let straddling = starts.partition_point(|&s| s < 2 * CHUNK) - 1;

    // Client 1 is chunk 0's first block, checked by the fix-up; client 100 lies
    // inside chunk 0 and is checked by pass 1.
    let mut dup = edges.clone();
    let server = duplicate_in_block(&mut dup, &starts, 1, 5);
    duplicate_in_block(&mut dup, &starts, 100, 3);
    let expected = Err(GraphError::DuplicateEdge { client: 1, server });
    assert_eq!(build(num_clients, &dup), expected);
    assert_eq!(build(num_clients, &shuffled(&dup, 16)), expected);

    // Now the inside block is the smaller client, and the fix-up's block, which
    // straddles the second boundary, the larger.
    let mut dup = edges;
    let server = duplicate_in_block(&mut dup, &starts, 100, 3);
    duplicate_in_block(&mut dup, &starts, straddling, 7);
    let expected = Err(GraphError::DuplicateEdge {
        client: 100,
        server,
    });
    assert_eq!(build(num_clients, &dup), expected);
    assert_eq!(build(num_clients, &shuffled(&dup, 17)), expected);
}

#[test]
fn a_block_spanning_three_chunks_is_checked_whole() {
    // A simple block holds at most 4,096 edges and a chunk 2¹⁶, so only a block
    // with duplicates can span three chunks. Client 0's block runs from chunk 0 into
    // chunk 3, in random order, and a block inside chunk 3 has a duplicate too.
    let mut degrees = vec![3 * CHUNK + 8];
    degrees.extend([8; 8191]);
    let num_clients = degrees.len();
    let starts = block_starts(&degrees);
    let mut edges: Vec<(u32, u32)> = (0..degrees[0]).map(|i| (0, (i % SERVERS) as u32)).collect();
    shuffle(&mut edges, &mut SplitMix64::new(18));
    let mut rest = degrees.clone();
    rest[0] = 0;
    edges.extend(client_major(&rest, 19));
    assert_eq!(edges.len(), EDGES);
    duplicate_in_block(&mut edges, &starts, 8000, 2);
    let expected = Err(GraphError::DuplicateEdge {
        client: 0,
        server: 0,
    });
    assert_eq!(build(num_clients, &edges), expected);
    assert_eq!(build(num_clients, &shuffled(&edges, 20)), expected);
}

#[test]
fn a_range_error_beats_a_duplicate() {
    let degrees = degrees();
    let num_clients = degrees.len();
    let starts = block_starts(&degrees);
    let mut edges = client_major(&degrees, 21);
    duplicate_in_block(&mut edges, &starts, 1, 4);
    duplicate_in_block(&mut edges, &starts, 100, 4);
    edges[EDGES - 1].1 = SERVERS as u32;
    let expected = Err(GraphError::ServerOutOfRange {
        server: SERVERS,
        num_servers: SERVERS,
    });
    assert_eq!(build(num_clients, &edges), expected);
}
