//! Topology generators for every graph family used in the experiments (DESIGN.md §5).
//!
//! All generators are deterministic functions of their parameters and a 64-bit seed, and
//! produce *simple* bipartite graphs (no duplicate edges), because the protocols sample
//! destination servers uniformly from the neighbourhood and multi-edges would bias that
//! distribution.
//!
//! | Generator | Paper role |
//! |-----------|-----------|
//! | [`regular_random`] | Δ-regular graphs of Theorem 1 (regular case, Section 3) |
//! | [`almost_regular`] | almost-regular graphs with `Δ_max(S)/Δ_min(C) ≤ ρ` (Appendix D) |
//! | [`skewed_paper_example`] | the "non-extremal" example: few √n-degree clients, few o(log n)-degree servers |
//! | [`complete`] | dense regime of Becchetti et al. (RAES on Δ = n) |
//! | [`erdos_renyi`] | dense random regime `Δ = Θ(pn)` |
//! | [`geometric_proximity`] | proximity-constrained topologies (motivation ii) |
//! | [`trust_clusters`] | trust-restricted topologies (motivation i) |
//! | [`configuration_model`] | shared substrate: random simple graph with given degree sequences |

mod clusters;
mod configuration;
mod dense;
mod geometric;
mod regular;

pub use clusters::trust_clusters;
pub use configuration::configuration_model;
pub use dense::{complete, erdos_renyi};
pub use geometric::{geometric_proximity, radius_for_expected_degree};
pub use regular::{almost_regular, regular_random, skewed_paper_example};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{log2_squared, stats::DegreeStats};

    /// Every generator must produce graphs whose CSR invariants hold; spot-check the
    /// whole family here in one place (detailed per-generator tests live in the
    /// submodules).
    #[test]
    fn all_generators_produce_valid_graphs() {
        let n = 128;
        let delta = log2_squared(n);
        let graphs = vec![
            ("regular", regular_random(n, delta, 1).unwrap()),
            (
                "almost_regular",
                almost_regular(n, delta, 2 * delta, 2).unwrap(),
            ),
            ("skewed", skewed_paper_example(n, 3).unwrap()),
            ("complete", complete(n, n).unwrap()),
            ("erdos_renyi", erdos_renyi(n, n, 0.3, 4).unwrap()),
            (
                "geometric",
                geometric_proximity(n, radius_for_expected_degree(n, delta), 5).unwrap(),
            ),
            (
                "clusters",
                trust_clusters(n, 4, delta.min(n / 8), 4, 6).unwrap(),
            ),
        ];
        for (name, g) in graphs {
            assert_eq!(g.num_clients(), n, "{name}");
            assert_eq!(g.num_servers(), n, "{name}");
            let stats = DegreeStats::of(&g);
            assert!(stats.num_edges > 0, "{name} generated no edges");
            // Server degrees agree with the client lists they summarise.
            let mut holders = vec![0usize; g.num_servers()];
            for (_, s) in g.edges() {
                holders[s.index()] += 1;
            }
            for s in g.servers() {
                assert_eq!(g.server_degree(s), holders[s.index()], "{name}: {s}");
            }
            let degree_sum: usize = g.servers().map(|s| g.server_degree(s)).sum();
            assert_eq!(degree_sum, g.num_edges(), "{name}");
        }
    }
}
