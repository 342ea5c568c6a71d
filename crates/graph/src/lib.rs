//! Bipartite client-server graph substrate for the `constrained-lb` simulator.
//!
//! The paper studies load balancing over a fixed bipartite graph `G((C, S), E)`: `C` is
//! the set of clients, `S` the set of servers, and an edge `(v, u)` means client `v` is
//! allowed to send requests to server `u` (proximity / trust constraint). This crate
//! provides:
//!
//! * [`BipartiteGraph`] — an immutable, cache-friendly CSR representation of the
//!   client → servers adjacency (the only direction a protocol reads), plus server
//!   degrees. [`BipartiteGraph::from_edges`] builds it from an edge list, on the
//!   rayon pool when the list is grouped by client, as the generators write theirs;
//! * [`builder::GraphBuilder`] — incremental construction from edge lists with
//!   validation and de-duplication;
//! * [`generators`] — every topology family used by the experiments in DESIGN.md §5:
//!   Δ-regular random graphs, almost-regular configuration-model graphs, the paper's
//!   skewed "non-extremal" example, complete/dense graphs for the RAES regime,
//!   Erdős–Rényi bipartite graphs, geometric-proximity graphs and trust-cluster graphs;
//! * [`stats`] — degree statistics and the Theorem 1 pre-condition checks
//!   (`Δ_min(C) ≥ η·log²n`, `Δ_max(S)/Δ_min(C) ≤ ρ`);
//! * [`spec`] — a serde-serializable [`spec::GraphSpec`] describing a topology so
//!   experiments can be configured from data;
//! * [`snapshot`] — a binary snapshot format that ships generated graphs to shard
//!   worker processes: the client-side CSR itself at 4 B per node and per edge,
//!   decoded in one validating pass with no edge list and no sort.
//!
//! # Example
//!
//! ```
//! use clb_graph::{generators, stats::DegreeStats};
//!
//! // A 512-client / 512-server Δ-regular random graph with Δ = ⌈log²n⌉ = 81.
//! let g = generators::regular_random(512, 81, 0xFEED).unwrap();
//! assert_eq!(g.num_clients(), 512);
//! assert_eq!(g.num_servers(), 512);
//! let stats = DegreeStats::of(&g);
//! assert_eq!(stats.min_client_degree, 81);
//! assert_eq!(stats.max_client_degree, 81);
//! assert_eq!(stats.min_server_degree, 81);
//! assert_eq!(stats.max_server_degree, 81);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod builder;
pub mod generators;
pub mod ids;
pub mod snapshot;
pub mod spec;
pub mod stats;

pub use bipartite::BipartiteGraph;
pub use builder::GraphBuilder;
pub use ids::{ClientId, ServerId};
pub use spec::GraphSpec;
pub use stats::DegreeStats;

/// Errors produced while constructing or generating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a client index `>= num_clients`.
    ClientOutOfRange {
        /// Offending client index.
        client: usize,
        /// Number of clients in the graph under construction.
        num_clients: usize,
    },
    /// An edge referenced a server index `>= num_servers`.
    ServerOutOfRange {
        /// Offending server index.
        server: usize,
        /// Number of servers in the graph under construction.
        num_servers: usize,
    },
    /// The same (client, server) edge was added twice and de-duplication was disabled.
    DuplicateEdge {
        /// Client endpoint of the duplicate edge.
        client: usize,
        /// Server endpoint of the duplicate edge.
        server: usize,
    },
    /// A generator was asked for parameters it cannot satisfy
    /// (e.g. a Δ-regular graph with Δ larger than the number of servers).
    InvalidParameters(String),
    /// A randomized generator exhausted its repair/retry budget.
    GenerationFailed(String),
    /// A snapshot could not be decoded.
    CorruptSnapshot(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::ClientOutOfRange {
                client,
                num_clients,
            } => {
                write!(
                    f,
                    "client index {client} out of range (num_clients = {num_clients})"
                )
            }
            GraphError::ServerOutOfRange {
                server,
                num_servers,
            } => {
                write!(
                    f,
                    "server index {server} out of range (num_servers = {num_servers})"
                )
            }
            GraphError::DuplicateEdge { client, server } => {
                write!(f, "duplicate edge ({client}, {server})")
            }
            GraphError::InvalidParameters(msg) => write!(f, "invalid generator parameters: {msg}"),
            GraphError::GenerationFailed(msg) => write!(f, "graph generation failed: {msg}"),
            GraphError::CorruptSnapshot(msg) => write!(f, "corrupt graph snapshot: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Returns `⌈log₂(n)²⌉`, the minimum client degree Theorem 1 requires (with η = 1).
///
/// Generators and experiment configs use this as the canonical "sparse but admissible"
/// degree. For `n < 2` the function returns 1.
pub fn log2_squared(n: usize) -> usize {
    if n < 2 {
        return 1;
    }
    let l = (n as f64).log2();
    (l * l).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_squared_known_values() {
        assert_eq!(log2_squared(0), 1);
        assert_eq!(log2_squared(1), 1);
        assert_eq!(log2_squared(2), 1);
        assert_eq!(log2_squared(4), 4);
        assert_eq!(log2_squared(1024), 100);
        // 2^16: log2 = 16, squared = 256.
        assert_eq!(log2_squared(65536), 256);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::ClientOutOfRange {
            client: 7,
            num_clients: 5,
        };
        assert!(e.to_string().contains('7'));
        let e = GraphError::DuplicateEdge {
            client: 1,
            server: 2,
        };
        assert!(e.to_string().contains("duplicate"));
        let e = GraphError::InvalidParameters("delta too large".into());
        assert!(e.to_string().contains("delta too large"));
    }
}
