//! Random simple bipartite graphs with prescribed degree sequences.
//!
//! This is the substrate every random generator in the crate builds on: expand both
//! degree sequences into "stubs", match them by a random shuffle (the classic
//! configuration model), then *repair* the few duplicate edges by local stub swaps so
//! the result is a simple graph while staying (asymptotically) uniform over simple
//! graphs with the prescribed degrees. For the sparse regimes used in the experiments
//! (`Δ = O(log²n)`, `n` up to 2^16) the expected number of repairs is `O(Δ²)` per run and
//! the repair loop terminates after a handful of swaps.
//!
//! # Block membership
//!
//! Client stubs are laid out grouped by client, so client `c` owns the stub positions
//! `offsets[c]..offsets[c + 1]` of the matching and no others. The multiplicity of an
//! edge `(c, s)` is therefore the number of times `s` occurs in `c`'s block, and every
//! question the repair loop asks ("is this edge still duplicated?", "would this swap
//! create an existing edge?") is a scan of one Δ-sized block rather than a lookup in a
//! multiset of all edges. The scans return the exact multiset answers, so the loop
//! takes the same branches and consumes the same RNG draws as a multiset-based
//! implementation, and the output graph is bit-identical to it
//! (`tests/configuration_differential.rs` checks this against such a reference). The
//! blocks are also the client CSR: sorting each one in place yields the graph without
//! an intermediate edge list.

use crate::bipartite::{prefix_sum, BipartiteGraph};
use crate::ids::check_id_space;
use crate::{GraphError, Result, ServerId};
use clb_rng::domains::GENERATOR_DOMAIN;
use clb_rng::{shuffle, RandomSource, StreamFactory, Xoshiro256PlusPlus};

/// Generates a uniform-ish random *simple* bipartite graph with the given degree
/// sequences.
///
/// Requirements:
/// * both sides have at most [`MAX_NODES`](crate::ids::MAX_NODES) entries (the `u32`
///   id space),
/// * `client_degrees.iter().sum() == server_degrees.iter().sum()`,
/// * every client degree is at most the number of servers,
/// * every server degree is at most the number of clients.
///
/// Returns [`GraphError::GenerationFailed`] if the duplicate-repair loop exhausts its
/// budget, which only happens for degree sequences very close to the feasibility
/// boundary (e.g. near-complete graphs with wildly uneven degrees).
pub fn configuration_model(
    client_degrees: &[usize],
    server_degrees: &[usize],
    seed: u64,
) -> Result<BipartiteGraph> {
    let num_clients = client_degrees.len();
    let num_servers = server_degrees.len();
    check_id_space(num_clients as u64, num_servers as u64)
        .map_err(GraphError::InvalidParameters)?;
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
    // The one stream feeds the whole shuffle and repair, so it runs eagerly.
    let mut rng = Xoshiro256PlusPlus::from(
        StreamFactory::new(seed)
            .domain(GENERATOR_DOMAIN)
            .stream(0, 0),
    );

    // Expand stubs. Position p of the matching connects the client whose block holds p
    // to server_of[p].
    let offsets = prefix_sum(client_degrees.iter().map(|&d| d as u64));
    let block = |c: usize| offsets[c] as usize..offsets[c + 1] as usize;
    let owner = |p: usize| offsets.partition_point(|&o| o <= p as u64) - 1;
    let mut server_of: Vec<ServerId> = Vec::with_capacity(total);
    for (s, &d) in server_degrees.iter().enumerate() {
        server_of.extend(std::iter::repeat_n(ServerId::new(s), d));
    }
    shuffle(&mut server_of, &mut rng);

    // A position is "bad" while its server repeats within its block. Blocks are
    // visited in client order, so the worklist comes out in ascending position order.
    let mut seen = vec![0u8; num_servers];
    let mut worklist: Vec<usize> = Vec::new();
    for c in 0..num_clients {
        let stubs = &server_of[block(c)];
        for s in stubs {
            seen[s.index()] = seen[s.index()].saturating_add(1);
        }
        worklist.extend(block(c).filter(|&p| seen[server_of[p].index()] > 1));
        for s in stubs {
            seen[s.index()] = 0;
        }
    }

    // Each repair needs O(1) expected proposals in the sparse regime; the budget is
    // generous so that legitimate dense cases still succeed.
    let mut budget: u64 = 200 * (worklist.len() as u64 + 1) + 10_000;
    while let Some(p) = worklist.pop() {
        let owner_p = owner(p);
        let server_p = server_of[p];
        if !repeats(&server_of[block(owner_p)], server_p) {
            continue; // already repaired by an earlier swap
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
            // The swap creates (owner_p, server_of[q]) and (owner_q, server_p); both
            // must be absent. Within one block (q == p included) the first one is the
            // edge at q itself, so same-owner proposals always fail.
            let owner_q = owner(q);
            if owner_q == owner_p
                || server_of[block(owner_p)].contains(&server_of[q])
                || server_of[block(owner_q)].contains(&server_p)
            {
                continue;
            }
            server_of.swap(p, q);
            break;
        }
    }

    let server_degrees = server_degrees.iter().map(|&d| d as u64).collect();
    BipartiteGraph::from_client_blocks(num_servers, offsets, server_of, server_degrees)
}

/// True if `server` occurs at least twice in `block`.
fn repeats(block: &[ServerId], server: ServerId) -> bool {
    block.iter().filter(|&&s| s == server).nth(1).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    #[test]
    fn respects_degree_sequences() {
        let client_deg = vec![3, 2, 4, 1, 2];
        let server_deg = vec![2, 2, 3, 2, 3];
        let g = configuration_model(&client_deg, &server_deg, 7).unwrap();
        for (i, &d) in client_deg.iter().enumerate() {
            assert_eq!(g.client_degree(ClientId::new(i)), d);
        }
        for (i, &d) in server_deg.iter().enumerate() {
            assert_eq!(g.server_degree(ServerId::new(i)), d);
        }
    }

    #[test]
    fn mismatched_sums_rejected() {
        let err = configuration_model(&[2, 2], &[1, 2], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
    }

    #[test]
    fn infeasible_degree_rejected() {
        // A client cannot have more neighbours than there are servers.
        let err = configuration_model(&[3], &[1, 1, 1], 1).err();
        assert!(err.is_none(), "degree 3 with 3 servers is feasible");
        let err = configuration_model(&[4, 0, 0], &[2, 1, 1], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
        let err = configuration_model(&[2, 1, 1], &[4, 0, 0], 1).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
    }

    #[test]
    fn produces_simple_graph_even_with_heavy_collisions() {
        // Dense-ish: 16 clients and servers, all degree 12 out of 16 possible.
        let deg = vec![12usize; 16];
        let g = configuration_model(&deg, &deg, 99).unwrap();
        assert_eq!(g.num_edges(), 12 * 16);
        // No duplicates by construction (the CSR build would have failed otherwise).
        for c in g.clients() {
            assert_eq!(g.client_degree(c), 12);
        }
    }

    #[test]
    fn complete_graph_via_degrees_is_feasible() {
        let deg = vec![8usize; 8];
        let g = configuration_model(&deg, &deg, 3).unwrap();
        assert_eq!(g.num_edges(), 64);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let deg = vec![5usize; 40];
        let a = configuration_model(&deg, &deg, 1234).unwrap();
        let b = configuration_model(&deg, &deg, 1234).unwrap();
        let c = configuration_model(&deg, &deg, 1235).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_degrees_are_allowed() {
        let g = configuration_model(&[0, 2, 0], &[1, 0, 1], 5).unwrap();
        assert_eq!(g.client_degree(ClientId::new(0)), 0);
        assert_eq!(g.client_degree(ClientId::new(1)), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_sequences_give_empty_graph() {
        let g = configuration_model(&[], &[], 1).unwrap();
        assert_eq!(g.num_clients(), 0);
        assert_eq!(g.num_servers(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
