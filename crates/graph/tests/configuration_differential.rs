//! Differential tests of the configuration model: `generators::configuration_model`
//! answers every duplicate question by scanning one client's block of stubs, and must
//! return exactly what the straightforward multiset formulation returns — the same
//! graph (`==`) or the same error — on any degree sequence. The multiset formulation
//! is kept here as the reference: a `HashMap` over all edges, then
//! `BipartiteGraph::from_edges` on the repaired edge list.
//!
//! Every generated graph must also survive a rebuild: `from_edges` on its edge list in
//! shuffled order gives back an equal graph.

use clb_graph::{generators, BipartiteGraph, GraphError};
use clb_rng::domains::GENERATOR_DOMAIN;
use clb_rng::{shuffle, RandomSource, SplitMix64, StreamFactory};
use proptest::prelude::*;
use std::collections::HashMap;

/// The multiset configuration model: stubs matched by one shuffle, duplicates found
/// and repaired through a `HashMap` of edge multiplicities.
fn reference(
    client_degrees: &[usize],
    server_degrees: &[usize],
    seed: u64,
) -> Result<BipartiteGraph, GraphError> {
    let num_clients = client_degrees.len();
    let num_servers = server_degrees.len();
    let total_c: usize = client_degrees.iter().sum();
    let total_s: usize = server_degrees.iter().sum();
    if total_c != total_s {
        return Err(GraphError::InvalidParameters(format!(
            "degree sequences disagree: client stubs {total_c} vs server stubs {total_s}"
        )));
    }
    if let Some((i, &d)) = client_degrees
        .iter()
        .enumerate()
        .find(|&(_, &d)| d > num_servers)
    {
        return Err(GraphError::InvalidParameters(format!(
            "client {i} has degree {d} > number of servers {num_servers}"
        )));
    }
    if let Some((i, &d)) = server_degrees
        .iter()
        .enumerate()
        .find(|&(_, &d)| d > num_clients)
    {
        return Err(GraphError::InvalidParameters(format!(
            "server {i} has degree {d} > number of clients {num_clients}"
        )));
    }

    let total = total_c;
    let mut rng = StreamFactory::new(seed)
        .domain(GENERATOR_DOMAIN)
        .stream(0, 0);
    let mut client_of: Vec<u32> = Vec::with_capacity(total);
    for (c, &d) in client_degrees.iter().enumerate() {
        client_of.extend(std::iter::repeat_n(c as u32, d));
    }
    let mut server_of: Vec<u32> = Vec::with_capacity(total);
    for (s, &d) in server_degrees.iter().enumerate() {
        server_of.extend(std::iter::repeat_n(s as u32, d));
    }
    shuffle(&mut server_of, &mut rng);

    let mut multiplicity: HashMap<(u32, u32), u32> = HashMap::with_capacity(total * 2);
    for p in 0..total {
        *multiplicity
            .entry((client_of[p], server_of[p]))
            .or_insert(0) += 1;
    }
    let mut worklist: Vec<usize> = (0..total)
        .filter(|&p| multiplicity[&(client_of[p], server_of[p])] > 1)
        .collect();

    let mut budget: u64 = 200 * (worklist.len() as u64 + 1) + 10_000;
    while let Some(p) = worklist.pop() {
        let edge_p = (client_of[p], server_of[p]);
        if multiplicity.get(&edge_p).copied().unwrap_or(0) <= 1 {
            continue;
        }
        loop {
            if budget == 0 {
                return Err(GraphError::GenerationFailed(format!(
                    "duplicate-repair budget exhausted with {} unresolved stubs",
                    worklist.len() + 1
                )));
            }
            budget -= 1;
            let q = rng.gen_index(total);
            if q == p {
                continue;
            }
            let edge_q = (client_of[q], server_of[q]);
            let new_p = (client_of[p], server_of[q]);
            let new_q = (client_of[q], server_of[p]);
            if new_p == new_q {
                continue;
            }
            if multiplicity.get(&new_p).copied().unwrap_or(0) > 0
                || multiplicity.get(&new_q).copied().unwrap_or(0) > 0
            {
                continue;
            }
            decrement(&mut multiplicity, edge_p);
            decrement(&mut multiplicity, edge_q);
            server_of.swap(p, q);
            multiplicity.insert(new_p, 1);
            multiplicity.insert(new_q, 1);
            break;
        }
    }

    let edges: Vec<(u32, u32)> = client_of.into_iter().zip(server_of).collect();
    BipartiteGraph::from_edges(num_clients, num_servers, &edges)
}

fn decrement(map: &mut HashMap<(u32, u32), u32>, key: (u32, u32)) {
    if let Some(v) = map.get_mut(&key) {
        if *v <= 1 {
            map.remove(&key);
        } else {
            *v -= 1;
        }
    }
}

/// Spreads the client stubs over `num_servers` servers at random, at most
/// `num_clients` per server, so the sums agree. Sparse spreads leave some servers at
/// degree zero. Requires every client degree to be at most `num_servers`.
fn spread_over_servers(client_degrees: &[usize], num_servers: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut degrees = vec![0usize; num_servers];
    for _ in 0..client_degrees.iter().sum::<usize>() {
        loop {
            let s = rng.gen_index(num_servers);
            if degrees[s] < client_degrees.len() {
                degrees[s] += 1;
                break;
            }
        }
    }
    degrees
}

/// Runs both generators and requires equal results; a generated graph must also be
/// rebuilt unchanged by `from_edges` from its shuffled edge list. Returns whether
/// generation succeeded.
fn assert_matches_reference(client_degrees: &[usize], server_degrees: &[usize], seed: u64) -> bool {
    let expected = reference(client_degrees, server_degrees, seed);
    let actual = generators::configuration_model(client_degrees, server_degrees, seed);
    assert_eq!(
        actual, expected,
        "clients {client_degrees:?}, servers {server_degrees:?}, seed {seed}"
    );
    let Ok(graph) = actual else {
        return false;
    };
    let mut edges: Vec<(u32, u32)> = graph.edges().map(|(c, s)| (c.0, s.0)).collect();
    shuffle(&mut edges, &mut SplitMix64::new(seed ^ 0x5EED));
    let rebuilt = BipartiteGraph::from_edges(graph.num_clients(), graph.num_servers(), &edges);
    assert_eq!(rebuilt.as_ref(), Ok(&graph), "rebuild from shuffled edges");
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_reference_on_regular_sequences(
        n in 2usize..160,
        delta_frac in 0.01f64..=0.5,
        seed in any::<u64>(),
    ) {
        let delta = ((n as f64 * delta_frac).ceil() as usize).clamp(1, n);
        let degrees = vec![delta; n];
        prop_assert!(assert_matches_reference(&degrees, &degrees, seed));
    }

    #[test]
    fn matches_reference_on_uneven_sequences(
        degrees in prop::collection::vec(0usize..24, 1..120),
        num_servers in 1usize..120,
        seed in any::<u64>(),
    ) {
        // Zero-degree clients come from the range; zero-degree servers from sparse
        // spreads.
        let clients: Vec<usize> = degrees.iter().map(|&d| d.min(num_servers / 2)).collect();
        let servers = spread_over_servers(&clients, num_servers, seed);
        assert_matches_reference(&clients, &servers, seed);
    }

    #[test]
    fn matches_reference_on_almost_regular_sequences(
        n in 4usize..200,
        min_frac in 0.02f64..=0.2,
        span in 1usize..4,
        seed in any::<u64>(),
    ) {
        // The shape of `generators::almost_regular`: uneven clients, servers balanced
        // to within one stub.
        let min_degree = ((n as f64 * min_frac).ceil() as usize).clamp(1, n);
        let max_degree = (min_degree * span).min(n / 2).max(min_degree);
        let mut rng = SplitMix64::new(seed);
        let clients: Vec<usize> = (0..n)
            .map(|_| min_degree + rng.gen_index(max_degree - min_degree + 1))
            .collect();
        let total: usize = clients.iter().sum();
        let servers: Vec<usize> = (0..n).map(|i| total / n + usize::from(i < total % n)).collect();
        prop_assert!(assert_matches_reference(&clients, &servers, seed));
    }

    #[test]
    fn matches_reference_on_near_dense_sequences(
        num_clients in 2usize..20,
        num_servers in 2usize..20,
        slack in prop::collection::vec(0usize..3, 20..21),
        seed in any::<u64>(),
    ) {
        // Client degrees within 2 of the complete graph: the repair loop runs out of
        // free slots on many of these and must fail exactly where the reference does.
        let clients: Vec<usize> = slack[..num_clients]
            .iter()
            .map(|&s| num_servers.saturating_sub(s).max(1))
            .collect();
        let servers = spread_over_servers(&clients, num_servers, seed);
        assert_matches_reference(&clients, &servers, seed);
    }
}

#[test]
fn near_dense_sequences_exercise_both_outcomes() {
    // The near-dense property above is only meaningful if it sees both successes and
    // budget exhaustion; pin that on a fixed sample.
    let (mut built, mut exhausted) = (0, 0);
    for seed in 0..64u64 {
        let n = 6 + (seed % 10) as usize;
        let clients: Vec<usize> = (0..n).map(|c| n - (c + seed as usize) % 3).collect();
        let servers = spread_over_servers(&clients, n, seed);
        if assert_matches_reference(&clients, &servers, seed) {
            built += 1;
        } else {
            exhausted += 1;
        }
    }
    assert!(
        built > 0 && exhausted > 0,
        "{built} built, {exhausted} failed"
    );
}

#[test]
fn infeasible_sequence_exhausts_the_budget_like_the_reference() {
    // Degree-feasible one node at a time, but client 0 needs three distinct servers
    // and only two have stubs (Gale–Ryser fails at k = 1).
    let (clients, servers) = ([3, 1, 1, 1], [3, 3, 0, 0]);
    let actual = generators::configuration_model(&clients, &servers, 11);
    assert!(matches!(actual, Err(GraphError::GenerationFailed(_))));
    assert_eq!(actual, reference(&clients, &servers, 11));
}

#[test]
fn parameter_errors_match_the_reference() {
    for (clients, servers) in [
        (vec![2, 2], vec![1, 2]),
        (vec![4, 0, 0], vec![2, 1, 1]),
        (vec![2, 1, 1], vec![4, 0, 0]),
    ] {
        let actual = generators::configuration_model(&clients, &servers, 1);
        assert!(matches!(actual, Err(GraphError::InvalidParameters(_))));
        assert_eq!(actual, reference(&clients, &servers, 1));
    }
}
