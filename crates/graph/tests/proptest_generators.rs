//! Property-based tests of the graph substrate: every generator must produce simple,
//! well-formed bipartite graphs whose degree guarantees hold for arbitrary admissible
//! parameters, and the CSR/builder/snapshot layers must agree with each other.

use clb_graph::{generators, snapshot, BipartiteGraph, DegreeStats, GraphBuilder};
use proptest::prelude::*;

/// Checks the structural invariants every graph in this codebase must satisfy.
fn assert_well_formed(g: &BipartiteGraph) {
    // Sorted, duplicate-free client lists, and server degrees that count the client
    // lists containing each server.
    let mut edge_count = 0usize;
    let mut holders = vec![0usize; g.num_servers()];
    for c in g.clients() {
        let neigh = g.client_neighbors(c);
        assert!(
            neigh.windows(2).all(|w| w[0] < w[1]),
            "unsorted or duplicate edges at {c}"
        );
        for &s in neigh {
            holders[s.index()] += 1;
            edge_count += 1;
        }
    }
    assert_eq!(edge_count, g.num_edges());
    for s in g.servers() {
        assert_eq!(g.server_degree(s), holders[s.index()], "degree of {s}");
    }
    let degree_sum: usize = g.servers().map(|s| g.server_degree(s)).sum();
    assert_eq!(degree_sum, g.num_edges());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regular_generator_is_exactly_regular(
        n in 2usize..300,
        // Densities above ~1/2 approach the complete graph, where the stub-swap repair
        // of the configuration model can run out of free slots; those regimes are
        // exercised by the dedicated dense generators instead.
        delta_frac in 0.01f64..=0.5,
        seed in any::<u64>(),
    ) {
        let delta = ((n as f64 * delta_frac).ceil() as usize).clamp(1, n);
        let g = generators::regular_random(n, delta, seed).unwrap();
        assert_well_formed(&g);
        let stats = DegreeStats::of(&g);
        prop_assert!(stats.is_regular());
        prop_assert_eq!(stats.min_client_degree, delta);
        prop_assert_eq!(stats.num_edges, n * delta);
    }

    #[test]
    fn almost_regular_generator_respects_bounds(
        n in 4usize..300,
        min_frac in 0.05f64..=0.25,
        span in 1usize..4,
        seed in any::<u64>(),
    ) {
        let min_degree = ((n as f64 * min_frac).ceil() as usize).clamp(1, n);
        let max_degree = (min_degree * span).min(n);
        let g = generators::almost_regular(n, min_degree, max_degree, seed).unwrap();
        assert_well_formed(&g);
        let stats = DegreeStats::of(&g);
        prop_assert!(stats.min_client_degree >= min_degree);
        prop_assert!(stats.max_client_degree <= max_degree);
        // Servers are balanced to within one stub.
        prop_assert!(stats.max_server_degree - stats.min_server_degree <= 1);
    }

    #[test]
    fn configuration_model_honours_degree_sequences(
        degrees in prop::collection::vec(0usize..12, 2..60),
        seed in any::<u64>(),
    ) {
        // Build a feasible server sequence by transposing the client one. Degrees are
        // capped at n/2 for the same reason as in the regular-generator property: close
        // to the complete graph the stub-swap repair can hit the feasibility boundary
        // (that regime has its own unit tests and dedicated dense generators).
        let n = degrees.len();
        let cap = (n / 2).max(1);
        let clamped: Vec<usize> = degrees.iter().map(|&d| d.min(cap)).collect();
        let total: usize = clamped.iter().sum();
        let base = total / n;
        let extra = total % n;
        let server_degrees: Vec<usize> =
            (0..n).map(|i| base + usize::from(i < extra)).collect();
        prop_assume!(server_degrees.iter().sum::<usize>() == total);
        let g = generators::configuration_model(&clamped, &server_degrees, seed).unwrap();
        assert_well_formed(&g);
        for (i, &d) in clamped.iter().enumerate() {
            prop_assert_eq!(g.client_degree(clb_graph::ClientId::new(i)), d);
        }
    }

    #[test]
    fn erdos_renyi_edges_within_complete_graph(
        n in 1usize..150,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let g = generators::erdos_renyi(n, n, p, seed).unwrap();
        assert_well_formed(&g);
        prop_assert!(g.num_edges() <= n * n);
    }

    #[test]
    fn geometric_graph_is_well_formed(
        n in 1usize..300,
        radius in 0.005f64..0.7,
        seed in any::<u64>(),
    ) {
        let g = generators::geometric_proximity(n, radius, seed).unwrap();
        assert_well_formed(&g);
    }

    #[test]
    fn snapshots_round_trip_any_builder_graph(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..300),
    ) {
        let graph = builder_graph(edges);
        assert_well_formed(&graph);
        let decoded = snapshot::decode(&snapshot::encode(&graph)).unwrap();
        prop_assert_eq!(graph, decoded);
    }

    #[test]
    fn truncated_or_bit_flipped_snapshots_are_rejected(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..300),
        sampled_bits in prop::collection::vec(any::<u64>(), 64..65),
    ) {
        let bytes = snapshot::encode(&builder_graph(edges)).to_vec();
        for cut in 0..bytes.len() {
            prop_assert!(
                snapshot::decode(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte snapshot decoded",
                bytes.len()
            );
        }
        // Every bit of the 32-byte header, then a sample of bits anywhere: flipping
        // all of them would make this property slow in debug builds.
        let bits = 8 * bytes.len() as u64;
        for bit in (0..256).chain(sampled_bits.iter().map(|b| b % bits)) {
            let mut flipped = bytes.clone();
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            prop_assert!(
                snapshot::decode(&flipped).is_err(),
                "flipping bit {bit} went unnoticed"
            );
        }
    }
}

/// A graph on 40 clients and 40 servers with the given edges, duplicates dropped;
/// short edge lists leave some clients and servers isolated.
fn builder_graph(edges: Vec<(u32, u32)>) -> BipartiteGraph {
    let mut builder = GraphBuilder::deduplicating(40, 40);
    for (c, s) in edges {
        builder.add_edge(c as usize, s as usize).unwrap();
    }
    builder.build().unwrap()
}
